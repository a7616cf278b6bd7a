#include "dist/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include <sys/wait.h>

#include "dist/child.hpp"
#include "dist/coordinator.hpp"
#include "dist/frame.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace pssp::dist {

namespace {

using steady_clock = std::chrono::steady_clock;

steady_clock::duration from_seconds(double s) {
    return std::chrono::duration_cast<steady_clock::duration>(
        std::chrono::duration<double>(s));
}

// ---- obs counters (side channel; registered once per process) ----
struct dist_counters {
    obs::metric_id retries = obs::counter("dist.retries");
    obs::metric_id requeued_blocks = obs::counter("dist.requeued_blocks");
    obs::metric_id timeouts = obs::counter("dist.timeouts");
    obs::metric_id crashes = obs::counter("dist.crashes");
    obs::metric_id bad_partials = obs::counter("dist.bad_partials");
    obs::metric_id spawned = obs::counter("dist.spawned_workers");
};

const dist_counters& counters() {
    static const dist_counters ids;
    return ids;
}

// Human description of a raw wait4 status; empty for a clean exit 0.
std::string describe_wait_status(int status) {
    if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == 0) return {};
        if (code == 127) return "worker exec failed (bad worker path?)";
        return "worker exited with status " + std::to_string(code);
    }
    if (WIFSIGNALED(status))
        return std::string{"worker killed by signal "} +
               std::to_string(WTERMSIG(status)) + " (" +
               strsignal(WTERMSIG(status)) + ")";
    return "worker ended abnormally";
}

// Exit 127 is the exec-failed convention: a missing or unrunnable worker
// binary never heals on retry, so it is never requeued.
bool is_exec_failure(int wait_status) noexcept {
    return WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 127;
}

struct attempt_classification {
    failure_kind kind = failure_kind::none;
    std::string why;
    partial_report partial;
};

// Classifies one finished attempt, whichever channel held it: non-zero
// wait status -> crash; otherwise the output must parse as a partial
// matching the job's shard identity, spec digest, round, and exact block
// manifest. `input_error` (a local stdin-delivery failure) refines the
// verdict.
attempt_classification classify_attempt(const supervised_job& job,
                                        int wait_status,
                                        std::string_view output,
                                        std::string_view input_error) {
    attempt_classification c;
    if (std::string exited = describe_wait_status(wait_status);
        !exited.empty()) {
        c.kind = failure_kind::crash;
        c.why = std::move(exited);
        if (!input_error.empty()) c.why += "; " + std::string{input_error};
        return c;
    }
    try {
        c.partial = partial_from_json(output);
    } catch (const std::exception& e) {
        // Undelivered input is the root cause when both failed.
        if (!input_error.empty()) {
            c.kind = failure_kind::input;
            c.why = input_error;
        } else {
            c.kind = failure_kind::bad_partial;
            c.why = std::string{"emitted a bad partial: "} + e.what();
        }
        return c;
    }
    if (c.partial.shard_index != job.shard ||
        c.partial.shard_count != job.shard_count) {
        c.kind = failure_kind::bad_partial;
        c.why = "identified as shard " + std::to_string(c.partial.shard_index) +
                "/" + std::to_string(c.partial.shard_count);
        return c;
    }
    if (c.partial.digest != job.manifest.digest) {
        c.kind = failure_kind::bad_partial;
        c.why = "emitted a partial for a different spec (digest mismatch)";
        return c;
    }
    if (c.partial.round != job.manifest.round) {
        c.kind = failure_kind::bad_partial;
        c.why = "reported round " + std::to_string(c.partial.round) +
                ", expected " + std::to_string(job.manifest.round);
        return c;
    }
    if (c.partial.blocks.size() != job.manifest.blocks.size()) {
        c.kind = failure_kind::wrong_blocks;
        c.why = "covered " + std::to_string(c.partial.blocks.size()) +
                " blocks, manifest assigned " +
                std::to_string(job.manifest.blocks.size());
        return c;
    }
    for (std::size_t i = 0; i < job.manifest.blocks.size(); ++i) {
        const auto& got = c.partial.blocks[i];
        const auto& want = job.manifest.blocks[i];
        if (got.index != want.index || got.cell != want.cell ||
            got.partial.trials != want.trials) {
            c.kind = failure_kind::wrong_blocks;
            c.why = "covered block " + std::to_string(got.index) +
                    " where the manifest assigned block " +
                    std::to_string(want.index);
            return c;
        }
    }
    return c;
}

// A local worker answers its one lease with exactly one result frame on
// stdout. Returns the partial JSON after the frame's envelope; throws when
// stdout holds anything else. The partial's own header carries the shard
// identity classify_attempt checks.
std::string unwrap_result(const std::string& raw) {
    frame_reader reader;
    reader.feed(raw.data(), raw.size());
    const auto f = reader.next();
    if (!f || f->type != frame_type::result || reader.pending_bytes() != 0)
        throw std::runtime_error{"stdout (" + std::to_string(raw.size()) +
                                 " bytes) is not one result frame"};
    std::string_view body;
    (void)decode_result(f->payload, &body);
    return std::string{body};
}

enum class job_state : std::uint8_t { pending, running, finished };

// One job. A running attempt is held by a channel: the slot's local child,
// or — when the round runs on a fleet — a remote node the coordinator
// tracks by job index.
struct job_slot {
    job_state state = job_state::pending;
    unsigned attempts = 0;               // attempts started
    steady_clock::time_point release{};  // pending: earliest next start
    steady_clock::time_point started{};
    steady_clock::time_point deadline{};  // running, if the policy arms one
    std::uint64_t started_ns = 0;
    bool expired = false;  // local: SIGKILLed on its deadline, awaiting EOF
    child_process child;   // the local channel
};

class job_loop {
  public:
    job_loop(const std::string& worker, const std::vector<supervised_job>& jobs,
             const fault_policy& policy, const supervise_hooks& hooks,
             supervise_stats& stats, coordinator* fleet)
        : worker_{worker},
          jobs_{jobs},
          policy_{policy},
          hooks_{hooks},
          stats_{stats},
          fleet_{fleet},
          slots_(jobs.size()),
          results_(jobs.size()),
          unfinished_{jobs.size()} {}

    std::vector<job_result> run() {
        const auto now = steady_clock::now();
        for (auto& slot : slots_) slot.release = now;
        while (unfinished_ > 0) {
            if (fleet_ != nullptr) fleet_->check_progress(any_running());
            start_ready();
            wait_for_events();
            const auto tick = steady_clock::now();
            for (std::size_t k = 0; k < slots_.size(); ++k) {
                auto& slot = slots_[k];
                if (slot.state != job_state::running) continue;
                if (armed(slot) && tick >= slot.deadline) expire(k);
                if (slot.child.running() && slot.child.output_done())
                    finish_local(k);
            }
        }
        return std::move(results_);
    }

  private:
    bool armed(const job_slot& slot) const {
        return policy_.timeout_seconds > 0.0 && !slot.expired;
    }

    bool any_running() const {
        return std::any_of(slots_.begin(), slots_.end(), [](const job_slot& s) {
            return s.state == job_state::running;
        });
    }

    // Starts every due pending job: a local child each (unbounded), or a
    // lease each until the fleet has no idle node.
    void start_ready() {
        const auto now = steady_clock::now();
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            auto& slot = slots_[k];
            if (slot.state != job_state::pending || slot.release > now)
                continue;
            const unsigned attempt = slot.attempts + 1;
            const auto& job = jobs_[k];
            if (fleet_ != nullptr) {
                if (!fleet_->lease(k, job, attempt)) return;
            } else {
                // One lease frame, then EOF: the worker answers it and
                // exits, so every local attempt is one process.
                std::vector<std::pair<const char*, std::string>> env;
                // Flight recorder: the worker enables tracing and
                // checkpoints its span ring to the named file.
                if (!job.flight_path.empty())
                    env.emplace_back("PSSP_OBS_FLIGHT", job.flight_path);
                if (auto err = slot.child.spawn(worker_, job.args, env);
                    !err.empty())
                    abort_all(err);
                slot.child.send(encode_frame(frame_type::lease,
                                             lease_payload(job, attempt)));
                slot.child.end_input();
                obs::add(counters().spawned, 1);
            }
            slot.state = job_state::running;
            slot.attempts = attempt;
            slot.expired = false;
            slot.started = now;
            slot.started_ns = obs::trace_now_ns();
            if (policy_.timeout_seconds > 0.0)
                slot.deadline = now + from_seconds(policy_.timeout_seconds);
        }
    }

    // One poll() pass over every local child's pipes and the fleet's
    // sockets, bounded by the nearest deadline, backoff release or
    // heartbeat-silence deadline. EINTR is a normal wakeup.
    void wait_for_events() {
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;  // fds[i] (local) -> slots_[owner[i]]
        const auto now = steady_clock::now();
        int wait_ms = -1;
        auto consider = [&wait_ms, &now](steady_clock::time_point when) {
            const auto dt =
                std::chrono::duration_cast<std::chrono::milliseconds>(when -
                                                                      now)
                    .count();
            const int ms =
                dt <= 0 ? 0
                        : static_cast<int>(std::min<long long>(dt + 1, 60000));
            if (wait_ms < 0 || ms < wait_ms) wait_ms = ms;
        };
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            const auto& slot = slots_[k];
            // On a fleet, a release already due is waiting on an idle
            // node, not on the clock — it must not drive the timeout to
            // zero (hot spin).
            if (slot.state == job_state::pending &&
                (fleet_ == nullptr || slot.release > now))
                consider(slot.release);
            if (slot.state != job_state::running) continue;
            if (armed(slot)) consider(slot.deadline);
            slot.child.add_poll_fds(fds);
            owner.resize(fds.size(), k);
        }
        const std::size_t local_fds = fds.size();
        if (fleet_ != nullptr) {
            consider(fleet_->add_poll_fds(fds));
            // Never block long: the register-wait and drain checks in
            // run() need the loop to tick.
            if (wait_ms < 0 || wait_ms > 500) wait_ms = 500;
        }
        if (fds.empty() && wait_ms < 0) return;  // nothing left to wait on
        if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), wait_ms) < 0) {
            if (errno == EINTR) return;
            abort_all(std::string{"poll() failed ("} + std::strerror(errno) +
                      ")");
        }
        for (std::size_t i = 0; i < local_fds; ++i)
            slots_[owner[i]].child.service(fds[i]);
        if (fleet_ == nullptr) return;
        const std::span<const pollfd> remote{fds.data() + local_fds,
                                             fds.size() - local_fds};
        for (auto& e : fleet_->service(remote, &stats_)) {
            auto& slot = slots_[e.job];
            if (slot.state != job_state::running || slot.attempts != e.attempt)
                continue;  // superseded attempt: dedup ignores it
            if (e.kind == failure_kind::none)
                finish_attempt(e.job, e.wait_status, e.output, {}, e.worker);
            else
                fail_attempt(e.job, e.kind, std::move(e.why), -1, true);
        }
    }

    // A running attempt passed its deadline. A local child is SIGKILLed
    // and its EOF drives the reap; a remote holder is evicted at once.
    void expire(std::size_t k) {
        char why[96];
        if (fleet_ == nullptr) {
            slots_[k].child.kill();
            slots_[k].expired = true;
            return;
        }
        const auto name = fleet_->revoke(k, stats_);
        std::snprintf(why, sizeof why,
                      "worker '%s' exceeded the %.1fs deadline (evicted)",
                      name.c_str(), policy_.timeout_seconds);
        fail_attempt(k, failure_kind::timeout, why, -1, true);
    }

    void finish_local(std::size_t k) {
        auto& slot = slots_[k];
        auto& result = results_[k];
        struct rusage ru {};
        const int status = slot.child.reap(&ru);
        result.user_seconds = static_cast<double>(ru.ru_utime.tv_sec) +
                              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
        result.sys_seconds = static_cast<double>(ru.ru_stime.tv_sec) +
                             static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
        // One lifetime span per local attempt on the orchestrator's
        // timeline (arg = shard index) — spawn to reap, pipe drain included.
        obs::emit_span("shard.worker", "dist", slot.started_ns,
                       obs::trace_now_ns() - slot.started_ns,
                       static_cast<std::int64_t>(jobs_[k].shard));
        if (slot.expired) {
            char why[96];
            std::snprintf(why, sizeof why,
                          "worker exceeded the %.1fs deadline (SIGKILLed)",
                          policy_.timeout_seconds);
            fail_attempt(k, failure_kind::timeout, why, status, true);
            return;
        }
        // A clean exit must leave one result frame on stdout; its partial
        // is then classified exactly like a node's relayed result.
        std::string output;
        if (describe_wait_status(status).empty()) {
            try {
                output = unwrap_result(slot.child.output());
            } catch (const std::exception& e) {
                fail_attempt(k, failure_kind::bad_partial,
                             std::string{"emitted a bad result frame: "} +
                                 e.what(),
                             status, true);
                return;
            }
        }
        finish_attempt(k, status, output, slot.child.input_error(), {});
    }

    void finish_attempt(std::size_t k, int status, std::string_view output,
                        std::string_view input_error,
                        const std::string& worker) {
        auto& slot = slots_[k];
        auto& result = results_[k];
        result.wall_seconds =
            std::chrono::duration<double>(steady_clock::now() - slot.started)
                .count();
        auto c = classify_attempt(jobs_[k], status, output, input_error);
        if (c.kind != failure_kind::none) {
            fail_attempt(k, c.kind, std::move(c.why), status,
                         !is_exec_failure(status));
            return;
        }
        result.ok = true;
        result.partial = std::move(c.partial);
        result.attempts = slot.attempts;
        result.worker_name = worker;
        slot.state = job_state::finished;
        --unfinished_;
    }

    // The one requeue path: count, report, then back to pending after a
    // backoff — or finished, once the budget is spent.
    void fail_attempt(std::size_t k, failure_kind kind, std::string why,
                      int status, bool retryable) {
        auto& slot = slots_[k];
        auto& result = results_[k];
        const auto& job = jobs_[k];
        if (kind == failure_kind::timeout) {
            stats_.timeouts += 1;
            obs::add(counters().timeouts, 1);
        } else if (kind == failure_kind::crash || kind == failure_kind::input) {
            obs::add(counters().crashes, 1);
        } else {
            obs::add(counters().bad_partials, 1);
        }
        result.attempts = slot.attempts;
        result.failures.push_back(
            attempt_record{slot.attempts, kind, std::move(why), status});
        if (hooks_.on_attempt_failure)
            hooks_.on_attempt_failure(job, result.failures.back());
        if (retryable && slot.attempts < policy_.max_attempts) {
            stats_.retries += 1;
            stats_.requeued_blocks += job.manifest.blocks.size();
            obs::add(counters().retries, 1);
            obs::add(counters().requeued_blocks, job.manifest.blocks.size());
            slot.state = job_state::pending;
            slot.release = steady_clock::now() +
                           from_seconds(policy_.backoff_for(slot.attempts));
            return;
        }
        slot.state = job_state::finished;  // retry budget exhausted
        --unfinished_;
    }

    // Infrastructure failure (pipe/fork/poll): the round cannot continue.
    // Kill and reap every launched child, then throw an error that names
    // what failed AND what happened to each already-launched worker — a
    // spawn failure mid-loop must not silently discard their fates.
    [[noreturn]] void abort_all(const std::string& what) {
        std::string aborted;
        std::size_t launched = 0;
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            if (!slots_[k].child.running()) continue;
            const int status = slots_[k].child.kill_and_reap();
            ++launched;
            std::string fate = describe_wait_status(status);
            if (fate.empty()) fate = "exited cleanly (result discarded)";
            if (!aborted.empty()) aborted += "; ";
            aborted += "shard " + std::to_string(jobs_[k].shard) + ": " + fate;
        }
        std::string message = "run_sharded: " + what;
        if (launched > 0)
            message += "; killed and reaped " + std::to_string(launched) +
                       " already-launched worker(s) [" + aborted + "]";
        throw std::runtime_error{message};
    }

    const std::string& worker_;
    const std::vector<supervised_job>& jobs_;
    const fault_policy& policy_;
    const supervise_hooks& hooks_;
    supervise_stats& stats_;
    coordinator* fleet_;
    std::vector<job_slot> slots_;
    std::vector<job_result> results_;
    std::size_t unfinished_;
};

}  // namespace

std::string lease_payload(const supervised_job& job, unsigned attempt) {
    lease_envelope env;
    env.shard = job.shard;
    env.shard_count = job.shard_count;
    env.attempt = attempt;
    env.round = job.manifest.round;
    return encode_lease(env, job.input);
}

double fault_policy::backoff_for(unsigned failed_attempts) const noexcept {
    double delay = backoff_base_seconds;
    for (unsigned i = 1; i < failed_attempts; ++i) delay *= 2.0;
    return std::min(delay, backoff_cap_seconds);
}

const char* to_string(failure_kind kind) noexcept {
    switch (kind) {
        case failure_kind::none: return "none";
        case failure_kind::input: return "input";
        case failure_kind::crash: return "crash";
        case failure_kind::timeout: return "timeout";
        case failure_kind::bad_partial: return "bad-partial";
        case failure_kind::wrong_blocks: return "wrong-blocks";
    }
    return "?";
}

std::vector<job_result> run_jobs(const std::string& worker,
                                 const std::vector<supervised_job>& jobs,
                                 const fault_policy& policy,
                                 const supervise_hooks& hooks,
                                 supervise_stats& stats, coordinator* fleet) {
    if (jobs.empty()) return {};
    if (policy.max_attempts == 0)
        throw std::invalid_argument{"run_jobs: max_attempts must be >= 1"};
    // A worker that dies before reading its input must surface as its wait
    // status, not as SIGPIPE killing the orchestrator.
    const scoped_sigpipe_ignore ignore_pipe;
    return job_loop{worker, jobs, policy, hooks, stats, fleet}.run();
}

}  // namespace pssp::dist
