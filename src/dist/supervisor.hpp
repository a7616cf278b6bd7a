// Attempt supervision: one lease loop for pipes and sockets.
//
// run_jobs() runs every job of a round to a terminal state. Each job is one
// block manifest; each attempt at it is held by a *channel* of one of two
// kinds, and a single poll() loop serves both:
//
//   * local        a fork/exec'd tools_campaign_worker behind a stdin/stdout
//                  pipe pair (dist/child.hpp), fed exactly one lease frame
//                  and then EOF, so every attempt is one process; it
//                  answers with one result frame. Capacity is unbounded,
//                  so every job of a round starts at once.
//   * remote       a tools_campaign_node registered with a dist::coordinator
//                  behind a framed socket. Capacity is one lease per node,
//                  so in-flight work is bounded by the fleet size. The node
//                  relays the same lease frame to a long-lived worker and
//                  its result frame back.
//
// Both kinds carry the same lease payload (lease_payload below) and the
// same result payload, so the chaos coordinates (shard, round, attempt)
// reach the worker in the lease envelope on either channel.
//
// The loop owns everything the two kinds share:
//
//   * deadline     policy.timeout_seconds > 0 arms a per-attempt deadline;
//                  an overdue local child is SIGKILLed, an overdue node is
//                  evicted, and the attempt classified as a timeout.
//   * classify     every finished attempt becomes exactly one failure_kind:
//                  crash (non-zero exit / signal / lost node), timeout,
//                  input (stdin could not be delivered), bad_partial
//                  (unparsable output, wrong shard identity, digest or
//                  round mismatch, a misaddressed result frame),
//                  wrong_blocks (a parsable partial covering blocks the
//                  manifest never assigned).
//   * requeue      a failed job goes back on the queue with exponential
//                  backoff (base * 2^(attempt-1), capped) until
//                  policy.max_attempts is exhausted. Requeueing is safe
//                  because wire::collect_block_partials enforces
//                  exactly-once block coverage downstream and block
//                  partials are pure functions of (master_seed, block):
//                  at-least-once delivery + dedup-by-block can never move
//                  a report byte. Exec failure (exit 127) is never
//                  retried — a missing binary does not heal.
//
// Failed attempts are reported through hooks (the orchestrator dumps a
// postmortem per attempt); only after every job is terminal does the
// caller decide to merge or fail loudly. Infrastructure failures —
// pipe()/fork() exhaustion — abort the whole round: every already-launched
// child is killed, reaped, and its status reported in the thrown error.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/wire.hpp"

namespace pssp::dist {

class coordinator;

// Retry/timeout/backoff knobs, one struct so the orchestrator options and
// the CLI flags stay aligned.
struct fault_policy {
    // Attempts per job (1 = the pre-supervision fail-fast behavior).
    unsigned max_attempts = 3;
    // Per-attempt deadline in seconds, over either channel kind; 0
    // disables it (an attempt may then legitimately run forever; lost
    // nodes are still caught by heartbeats and disconnects).
    double timeout_seconds = 0.0;
    // Exponential backoff before attempt N+1: base * 2^(N-1), capped.
    double backoff_base_seconds = 0.05;
    double backoff_cap_seconds = 2.0;

    // The backoff before the attempt after `failed_attempts` failures.
    // Never a blocking sleep: run_jobs folds the release time into its
    // poll() timeout so every other job's I/O keeps draining through a
    // backoff window.
    [[nodiscard]] double backoff_for(unsigned failed_attempts) const noexcept;
};

enum class failure_kind : std::uint8_t {
    none,
    input,         // stdin payload could not be delivered
    crash,         // non-zero exit, death by signal, or the node was lost
    timeout,       // exceeded the deadline
    bad_partial,   // output unparsable or misidentified (shard/digest/round)
    wrong_blocks,  // parsable partial covering blocks outside the manifest
};

[[nodiscard]] const char* to_string(failure_kind kind) noexcept;

// One job to supervise: argv tail, round-job JSON, and the block manifest
// it must cover (validated against its emitted partial).
struct supervised_job {
    std::vector<std::string> args;
    std::string input;
    round_manifest manifest;
    std::uint32_t shard = 0;        // partial header identity ...
    std::uint32_t shard_count = 0;  // ... the worker must echo back
    std::string flight_path;  // empty = no flight recorder for this worker
};

// One failed attempt, as handed to hooks and kept for the final error.
struct attempt_record {
    unsigned attempt = 1;  // 1-based
    failure_kind kind = failure_kind::none;
    std::string why;       // human description (decoded wait status, ...)
    int wait_status = -1;  // raw wait4 status (-1 if never reaped)
};

// Terminal state of one job, job-aligned with the input vector.
struct job_result {
    bool ok = false;
    partial_report partial;  // valid only when ok
    std::vector<attempt_record> failures;  // every failed attempt, in order
    unsigned attempts = 0;   // total attempts spent
    // Last attempt's times (telemetry): wall from start to finish on the
    // parent's clock; user/sys from a local child's rusage.
    double wall_seconds = 0.0;
    double user_seconds = 0.0;
    double sys_seconds = 0.0;
    // Remote channel: the registered name of the node that delivered the
    // accepted result (empty over local pipes).
    std::string worker_name;
};

// Recovery totals for one run_jobs call (telemetry side channel; also
// mirrored into the obs counters dist.retries / dist.requeued_blocks /
// dist.timeouts / dist.crashes / dist.bad_partials).
struct supervise_stats {
    std::uint64_t retries = 0;          // attempts beyond the first
    std::uint64_t requeued_blocks = 0;  // blocks re-dispatched by retries
    std::uint64_t timeouts = 0;         // deadline expiries
    // Remote channels only (always 0 over local pipes):
    std::uint64_t evictions = 0;   // nodes dropped for heartbeat silence,
                                   // disconnect, expiry or a poisoned frame
    std::uint64_t reconnects = 0;  // re-registrations accepted afterwards
};

struct supervise_hooks {
    // Called synchronously after each failed attempt, before any retry of
    // the same job starts — the orchestrator reads the worker's
    // flight-recorder file here and dumps a postmortem.
    std::function<void(const supervised_job&, const attempt_record&)>
        on_attempt_failure;
};

// The lease frame payload for one attempt at `job`: the envelope (shard,
// shard count, attempt, round) followed by the job's round-job JSON.
[[nodiscard]] std::string lease_payload(const supervised_job& job,
                                        unsigned attempt);

// Runs every job to a terminal state and returns job-aligned results.
// With `fleet` null every attempt is a local child running `worker`;
// otherwise every attempt is leased to one of the fleet's nodes (which
// run `worker` themselves). Worker failures are reported in the results —
// the caller turns retry exhaustion into a loud error with full context.
// Throws std::runtime_error only for infrastructure failures (pipe/fork
// exhaustion, poll failure, a drained or starved fleet), after killing and
// reaping every launched child and naming each one's fate in the message.
[[nodiscard]] std::vector<job_result> run_jobs(
    const std::string& worker, const std::vector<supervised_job>& jobs,
    const fault_policy& policy, const supervise_hooks& hooks,
    supervise_stats& stats, coordinator* fleet = nullptr);

}  // namespace pssp::dist
