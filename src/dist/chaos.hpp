// Deterministic fault-injection plans for campaign workers.
//
// The chaos harness is how the fault-tolerance layer is tested without
// real flaky hardware: the orchestrator's environment carries a *fault
// plan* (PSSP_CAMPAIGN_FAULT_PLAN), every worker and node process parses
// it at startup, and a lease whose (shard, round, attempt) coordinate
// matches a rule gets that rule's fault instead of (or around) its real
// work. The coordinate travels in each lease frame's envelope
// (dist/frame.hpp), so a long-lived worker serving many leases keys every
// one of them correctly. Because the coordinate is fully determined by
// the campaign — the allocator's round schedule is a pure function of
// (spec, master_seed) and the orchestrator numbers attempts
// deterministically — a chaos run replays *exactly*: same faults, same
// retries, same recovered report.
//
// Plan grammar (comma-separated rules; whitespace-free):
//
//   plan    := rule ("," rule)*
//   rule    := fault [":" shard [":" round [":" attempt]]]
//   fault   := "crash" | "crash-late" | "hang" | "trunc" | "corrupt"
//            | "wrong-block" | "slow=<millis>"
//            | "net-die" | "net-drop" | "net-garble"
//            | "net-delay=<millis>" | "net-partition=<millis>"
//            | "net-stall-hb"
//   shard   := integer | "*"          (default "*": any shard)
//   round   := integer | "*"          (default "*": any round; fixed
//                                      allocation runs are round 0)
//   attempt := integer | "*"          (default 1: first attempt only, so
//                                      the retry heals; "*" = every
//                                      attempt, for exhaustion tests)
//
// Process faults, at the point in the lease where the compute worker
// strikes (a local one-lease worker AND a network node's long-lived one —
// the same fault plan behaves identically over both transports):
//
//   crash        exit(3) on receiving the lease, before any work
//   crash-late   exit(4) after computing the partial, before emitting it
//   hang         block forever on receiving the lease (the supervisor's
//                deadline SIGKILLs a local worker and evicts a node,
//                whose session teardown kills its worker)
//   trunc        emit only the first half of the partial JSON (in an
//                intact result frame) and carry on
//   corrupt      emit a partial whose spec digest is flipped — parses
//                fine, fails validation
//   wrong-block  emit a partial whose block indices are shifted by one —
//                covers blocks the manifest never assigned
//   slow=N       sleep N milliseconds on receiving the lease, then run
//                normally (exercises the deadline without tripping it)
//
// Network faults, executed by the *node* daemon when a lease with a
// matching coordinate arrives (they never reach the compute child):
//
//   net-die          exit the whole node process — a worker permanently
//                    vanishing mid-round; the coordinator requeues its
//                    lease on the survivors
//   net-drop         close the TCP connection on lease receipt, then
//                    reconnect and re-register — the requeued lease
//                    arrives as attempt 2 and heals
//   net-garble       compute normally, then send the result frame with a
//                    corrupted integrity hash — the coordinator detects
//                    the garble, drops the connection, requeues
//   net-delay=N      compute normally, delay the result by N milliseconds
//                    (exercises the lease deadline; expiry requeues)
//   net-partition=N  go completely silent — no heartbeats, no reads — for
//                    N milliseconds; the coordinator evicts the worker on
//                    heartbeat timeout and requeues, the node reconnects
//                    after the partition lifts
//   net-stall-hb     stop sending heartbeats (while still reading) until
//                    the coordinator evicts this worker; then reconnect
//
// First matching rule wins. A malformed plan throws from parse with the
// 1-based entry index and the offending token (the worker exits loudly) —
// a typo'd chaos run must never pass as clean.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace pssp::dist {

enum class fault_kind : std::uint8_t {
    none,
    crash,
    crash_late,
    hang,
    trunc,
    corrupt,
    wrong_block,
    slow,
    // Network faults, and only they, come after this point.
    net_die,
    net_drop,
    net_garble,
    net_delay,
    net_partition,
    net_stall_hb,
};

[[nodiscard]] const char* to_string(fault_kind kind) noexcept;

// Network faults are executed by the node daemon's transport loop; every
// other kind belongs to the compute worker process.
[[nodiscard]] bool is_net_fault(fault_kind kind) noexcept;

struct fault_rule {
    fault_kind kind = fault_kind::none;
    // Match coordinates; any_* true means wildcard.
    bool any_shard = true;
    bool any_round = true;
    bool any_attempt = false;
    std::uint64_t shard = 0;
    std::uint64_t round = 0;
    std::uint64_t attempt = 1;
    std::uint64_t param = 0;  // slow/net-delay/net-partition: milliseconds
};

struct fault_plan {
    std::vector<fault_rule> rules;

    [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
};

// Parses the plan grammar above. Throws std::invalid_argument naming the
// 1-based entry index and the offending token on any malformed rule —
// including an empty entry ("crash,,hang") in a non-empty plan. An
// entirely empty plan text parses to an empty plan.
[[nodiscard]] fault_plan parse_fault_plan(std::string_view text);

// Which faults a caller executes: the compute worker asks for process
// faults (net rules must not confuse a pipe worker), the node daemon for
// network faults (it leaves process faults to the compute child it forks).
enum class fault_family : std::uint8_t { any, process, net };

// The first rule of `family` matching (shard, round, attempt), or a
// kind-none rule. First-match-wins holds within the family even when a
// foreign-family rule sits in front.
[[nodiscard]] fault_rule decide_fault(
    const fault_plan& plan, std::uint64_t shard, std::uint64_t round,
    std::uint64_t attempt, fault_family family = fault_family::any) noexcept;

// The environment variable that carries the plan to workers and nodes.
inline constexpr const char* fault_plan_env = "PSSP_CAMPAIGN_FAULT_PLAN";

}  // namespace pssp::dist
