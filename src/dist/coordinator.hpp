// The TCP coordinator: the socket half of run_jobs()'s remote channels.
//
// run_jobs() owns the job state machine — attempts, deadlines, backoff,
// classification, requeue. The coordinator owns only what sockets need:
// the listen socket, the hello/welcome handshake, heartbeats, eviction,
// the self-spawned fleet, and the SIGTERM drain. A lease frame carries the
// *same* round-job JSON the local channel feeds over stdin, and the result
// frame the compute child's raw stdout, so the merge downstream cannot
// tell the channel kinds apart: report bytes are identical to --jobs 1 by
// construction.
//
// Robustness model (the design center):
//
//   * lease         a registered node holds at most one lease at a time,
//                   so a slow node cannot starve the round — idle nodes
//                   drain the queue around it.
//   * heartbeats    nodes must send a frame at least every
//                   heartbeat_seconds; silence for 8 intervals evicts
//                   the node and requeues its lease.
//   * disconnect    a dropped connection (including a garbled frame —
//                   integrity-hash failure poisons the connection, or a
//                   result echoing the wrong shard/attempt) requeues the
//                   node's lease. A node that reconnects re-registers
//                   under the same name and resumes taking leases.
//   * vanishing     a node that never comes back merely shrinks the
//                   fleet: its requeued lease lands on a survivor. Only
//                   when *no* node is registered for register_wait_seconds
//                   does the run fail loudly.
//   * drain         SIGTERM stops new leases, lets in-flight leases
//                   finish (their results are checkpointed by the per-job
//                   hooks), and run_jobs throws a "drained" error — the
//                   run exits non-zero but --resume picks up from the
//                   checkpoint byte-identically.
//
// Nodes stay registered across rounds. Fleet mode (fleet_workers > 0)
// self-spawns that many localhost tools_campaign_node daemons pointed back
// at the coordinator's own port — the tests/CI topology. The children set
// PR_SET_PDEATHSIG, so a SIGKILLed coordinator (--kill-after-round) cannot
// leak node processes. With fleet_workers == 0 the coordinator only
// listens; remote nodes are started with
// `tools_campaign_node --connect host:port`.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

#include "dist/child.hpp"
#include "dist/frame.hpp"
#include "dist/supervisor.hpp"

namespace pssp::dist {

struct net_options {
    // Listen address. Port 0 binds an ephemeral port; on_listen reports
    // the actual one (tests and --listen 0 depend on this — parallel CI
    // runs must never race on a fixed port).
    std::string listen_host = "127.0.0.1";
    std::uint16_t listen_port = 0;
    std::function<void(std::uint16_t)> on_listen;

    // Self-spawned localhost fleet size (sibling tools_campaign_node
    // daemons); 0 = external nodes only.
    unsigned fleet_workers = 0;
    // Compute worker binary the fleet nodes fork per lease; empty lets
    // each node resolve its own sibling tools_campaign_worker.
    std::string worker_path;

    // Heartbeat interval the welcome imposes on nodes; a node silent for
    // 8 intervals is evicted.
    double heartbeat_seconds = 0.25;
    // How long run_jobs waits with work pending but zero registered
    // nodes before failing the run.
    double register_wait_seconds = 30.0;
};

// What became of one leased attempt, as service() reports it: kind none is
// a delivered result (wait_status + output), anything else a lost holder.
struct lease_event {
    std::size_t job = 0;
    unsigned attempt = 0;
    failure_kind kind = failure_kind::none;
    int wait_status = -1;
    std::string output;
    std::string why;     // lost: what happened to the holder
    std::string worker;  // delivered: the holder's registered name
};

class coordinator {
  public:
    // Binds and listens immediately (so on_listen fires with the real
    // port before any fleet child is spawned), spawns the fleet, and
    // installs the SIGTERM drain handler. Throws std::runtime_error on
    // socket/bind/listen failure.
    coordinator(const net_options& options, std::uint64_t spec_digest);
    ~coordinator();
    coordinator(const coordinator&) = delete;
    coordinator& operator=(const coordinator&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    // The exact handshake-rejection message a version-mismatched node
    // receives in its error frame (pinned by tests).
    [[nodiscard]] static std::string version_mismatch_error(
        std::uint32_t worker_version);

    // Drives accept/handshake/heartbeat once without a round — lets tests
    // register nodes (and reject mismatched ones) before or between
    // rounds. Waits up to wait_ms for socket activity.
    void pump(int wait_ms);

    // Registered (post-handshake) node count right now.
    [[nodiscard]] std::size_t registered_workers() const noexcept;

    // ---- Remote channels, driven by run_jobs() ----

    // Throws the register-wait error once no node has been registered for
    // register_wait_seconds, and the drain error once a drain was
    // requested and nothing is in flight.
    void check_progress(bool in_flight);
    // Leases `job` (index `k` of the round) to an idle registered node as
    // attempt `attempt`. False when the fleet is saturated or draining.
    [[nodiscard]] bool lease(std::size_t k, const supervised_job& job,
                             unsigned attempt);
    // Evicts the holder of job `k` (its deadline passed) without an
    // event; returns its name.
    std::string revoke(std::size_t k, supervise_stats& stats);
    // Appends the listen socket and every open connection; returns the
    // nearest heartbeat-silence deadline.
    [[nodiscard]] std::chrono::steady_clock::time_point add_poll_fds(
        std::vector<pollfd>& fds) const;
    // Services the fds add_poll_fds appended (revents filled in by poll),
    // then evicts silent nodes. Returns every delivered or lost lease.
    [[nodiscard]] std::vector<lease_event> service(std::span<const pollfd> fds,
                                                   supervise_stats* stats);

  private:
    struct node {
        frame_conn conn;
        std::string name;
        bool registered = false;
        std::chrono::steady_clock::time_point last_heard{};
        // The held lease: job index (npos = idle) and the envelope the
        // result must echo.
        std::size_t job = npos;
        std::uint32_t shard = 0;
        std::uint32_t attempt = 0;
    };
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    void listen_and_bind();
    void spawn_fleet();
    void accept_pending();
    void handle_frame(node& n, const frame& f);
    void handle_hello(node& n, const frame& f);
    void handle_result(node& n, const frame& f);
    void evict(node& n, const std::string& reason, failure_kind kind);

    net_options options_;
    std::uint64_t digest_ = 0;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::vector<pid_t> fleet_;
    std::vector<node> nodes_;
    std::chrono::steady_clock::time_point starved_since_{};
    // Set only inside service(): where evictions and results are reported.
    std::vector<lease_event>* events_ = nullptr;
    supervise_stats* stats_ = nullptr;
    scoped_sigpipe_ignore ignore_pipe_;
    struct sigaction old_term_ {};
};

}  // namespace pssp::dist
