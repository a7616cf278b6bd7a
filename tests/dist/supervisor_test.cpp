// Fault-tolerant supervision, end to end: real fork/exec of
// tools_campaign_worker with deterministic chaos plans injected through
// PSSP_CAMPAIGN_FAULT_PLAN. Pins the recovery contract: any fault the
// retry budget absorbs — crash, late crash, truncated/corrupt/wrong-block
// partial, hang + deadline — yields a merged report byte-identical to the
// clean run; an exhausted budget fails loudly naming the shard, round,
// attempts, argv and block manifest; and an infrastructure failure
// mid-spawn reaps and reports every already-launched worker.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <fcntl.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/chaos.hpp"
#include "dist/orchestrator.hpp"
#include "obs/registry.hpp"

namespace pssp {
namespace {

// Scoped PSSP_CAMPAIGN_FAULT_PLAN: never leaks a chaos plan into the
// next test (a stray plan would silently fault unrelated runs).
struct scoped_fault_plan {
    explicit scoped_fault_plan(const char* plan) {
        ::setenv(dist::fault_plan_env, plan, /*overwrite=*/1);
    }
    ~scoped_fault_plan() { ::unsetenv(dist::fault_plan_env); }
};

// Two cells, one 6-trial block each: the smallest campaign where two
// shards both own real work.
campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 6;
    spec.master_seed = 23;
    spec.query_budget = 512;
    return spec;
}

dist::sharded_options fast_options(unsigned shards) {
    dist::sharded_options options;
    options.shards = shards;
    options.flight_recorder = false;
    options.postmortem_dir = ::testing::TempDir();
    options.faults.backoff_base_seconds = 0.001;
    options.faults.backoff_cap_seconds = 0.01;
    return options;
}

std::uint64_t counter_value(const char* name) {
    return obs::value(obs::counter(name));
}

TEST(dist_supervisor, retries_heal_every_fault_kind_byte_identically) {
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    struct chaos_case {
        const char* plan;
        std::uint64_t min_retries;  // failed attempts the plan must cause
    };
    // Default attempt coordinate is 1, so every fault strikes the first
    // attempt only and the requeue heals it; slow=10 on attempt 2 rides
    // the retry through the slow path without failing it.
    const chaos_case cases[] = {
        {"crash:0,crash-late:1", 2},
        {"trunc:0,corrupt:1", 2},
        {"wrong-block:0,slow=10:*:*:2", 1},
    };
    for (const auto& c : cases) {
        scoped_fault_plan plan{c.plan};
        const auto retries_before = counter_value("dist.retries");
        const auto options = fast_options(2);
        const auto report = dist::run_sharded(spec, options);
        EXPECT_EQ(report.to_json(), reference) << "plan: " << c.plan;
        EXPECT_GE(counter_value("dist.retries") - retries_before,
                  c.min_retries)
            << "plan injected nothing: " << c.plan;
    }
}

// Two deterministic adaptive rounds (target 0 never converges; 4 blocks
// at 2 per round), with work for both shards in each.
campaign::campaign_spec two_round_spec() {
    auto spec = small_spec();
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;
    spec.trials_per_cell = 96;  // two ragged blocks per cell
    spec.round_blocks = 2;
    spec.min_trials_per_cell = 32;
    return spec;
}

TEST(dist_supervisor, adaptive_round_faults_heal_byte_identically) {
    // The plan faults round 1 on shard 0 and round 2 on shard 1, proving
    // the (shard, round, attempt) coordinate reaches the workers and
    // recovery holds across allocator rounds.
    const auto spec = two_round_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    scoped_fault_plan plan{"crash:0:1,corrupt:1:2"};
    const auto retries_before = counter_value("dist.retries");
    EXPECT_EQ(dist::run_sharded(spec, fast_options(2)).to_json(), reference);
    EXPECT_GE(counter_value("dist.retries") - retries_before, 2u);
}

std::string read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(dist_supervisor, postmortems_from_different_rounds_do_not_overwrite) {
    // Shard 0 crashes once in round 1 and once in round 2. Both attempts
    // are first attempts, so only the round tells their postmortems apart.
    const auto spec = two_round_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    const auto options = fast_options(2);
    const auto round1 = options.postmortem_dir + "/obs-postmortem-0.json";
    const auto round2 = options.postmortem_dir + "/obs-postmortem-0-round2.json";
    ::unlink(round1.c_str());
    ::unlink(round2.c_str());
    scoped_fault_plan plan{"crash:0:1,crash:0:2"};
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    const auto first = read_file(round1);
    const auto second = read_file(round2);
    EXPECT_NE(first.find("\"round\": 1,"), std::string::npos) << first;
    EXPECT_NE(second.find("\"round\": 2,"), std::string::npos) << second;
    ::unlink(round1.c_str());
    ::unlink(round2.c_str());
}

TEST(dist_supervisor, deadline_kills_hung_worker_and_retry_heals) {
    // The deadline belongs to the shared lease loop, so it must heal a
    // hung attempt over both channel kinds: a local child is SIGKILLed,
    // a remote holder (a node whose compute child hangs) is evicted, and
    // the requeued attempt 2 lands byte-identically either way.
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    scoped_fault_plan plan{"hang:1"};
    for (const unsigned workers : {0u, 2u}) {
        auto options = fast_options(2);
        options.faults.timeout_seconds = 1.0;
        if (workers != 0) {
            dist::net_options net;
            net.fleet_workers = workers;
            net.heartbeat_seconds = 0.1;
            options.net = net;
        }
        const auto timeouts_before = counter_value("dist.timeouts");
        EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference)
            << "workers: " << workers;
        EXPECT_GE(counter_value("dist.timeouts") - timeouts_before, 1u)
            << "workers: " << workers;
    }
}

TEST(dist_supervisor, exhausted_retries_fail_loudly_with_full_context) {
    const auto spec = small_spec();
    scoped_fault_plan plan{"crash:1:*:*"};  // every attempt, never heals
    auto options = fast_options(2);
    options.faults.max_attempts = 2;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "an exhausted retry budget must fail the campaign";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("shard 1 (round 0)"), std::string::npos) << what;
        EXPECT_NE(what.find("exited with status 3"), std::string::npos) << what;
        EXPECT_NE(what.find("after 2 attempt(s)"), std::string::npos) << what;
        EXPECT_NE(what.find("--shard 1 --shards 2"), std::string::npos) << what;
        EXPECT_NE(what.find("[blocks: "), std::string::npos) << what;
    }
    // One postmortem per failed attempt, none overwriting another.
    const auto first = options.postmortem_dir + "/obs-postmortem-1.json";
    const auto second =
        options.postmortem_dir + "/obs-postmortem-1-attempt2.json";
    EXPECT_EQ(::access(first.c_str(), R_OK), 0) << "missing " << first;
    EXPECT_EQ(::access(second.c_str(), R_OK), 0) << "missing " << second;
    ::unlink(first.c_str());
    ::unlink(second.c_str());
}

TEST(dist_supervisor, bad_partials_are_classified_not_merged) {
    // With max_attempts 1 each injected bad partial is terminal, so the
    // error must carry the classifier's verdict — corrupt partials read
    // as digest mismatches, wrong-block partials name the stray block.
    const auto spec = small_spec();
    auto options = fast_options(2);
    options.faults.max_attempts = 1;
    {
        scoped_fault_plan plan{"corrupt:0:*:*"};
        try {
            (void)dist::run_sharded(spec, options);
            FAIL() << "a corrupt partial must fail a no-retry run";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string{e.what()}.find("digest mismatch"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        scoped_fault_plan plan{"wrong-block:0:*:*"};
        try {
            (void)dist::run_sharded(spec, options);
            FAIL() << "a wrong-blocks partial must fail a no-retry run";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string{e.what()}.find("covered block"),
                      std::string::npos)
                << e.what();
        }
    }
    ::unlink((options.postmortem_dir + "/obs-postmortem-0.json").c_str());
}

TEST(dist_supervisor, signal_storm_mid_transfer_does_not_move_a_byte) {
    // Satellite regression: every pipe read/write/poll/wait in the
    // orchestrator must survive EINTR. A ticker thread signals the
    // orchestrating thread every millisecond — without SA_RESTART, so
    // every blocking syscall in run_sharded really returns EINTR —
    // throughout a two-shard run; the report must still be byte-identical.
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();

    struct sigaction storm {};
    storm.sa_handler = [](int) {};
    sigemptyset(&storm.sa_mask);
    storm.sa_flags = 0;  // no SA_RESTART: syscalls must handle EINTR
    struct sigaction old {};
    ASSERT_EQ(::sigaction(SIGUSR1, &storm, &old), 0);

    std::atomic<bool> stop{false};
    const pthread_t target = ::pthread_self();
    std::thread ticker{[&stop, target] {
        while (!stop.load(std::memory_order_relaxed)) {
            ::pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }};
    std::string got;
    try {
        got = dist::run_sharded(spec, fast_options(2)).to_json();
    } catch (...) {
        stop.store(true);
        ticker.join();
        ::sigaction(SIGUSR1, &old, nullptr);
        throw;
    }
    stop.store(true);
    ticker.join();
    ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
    EXPECT_EQ(got, reference);
}

TEST(dist_supervisor, spawn_failure_reaps_and_reports_launched_workers) {
    // Satellite regression: when pipe() dies mid-spawn, the pool used to
    // abandon already-running workers. The abort path must SIGKILL and
    // reap each one and name its fate in the thrown error. The fd table
    // is made dense with filler fds so the lowered RLIMIT_NOFILE leaves
    // exactly 9 free slots: three 2-pipe spawns fit (peak 4, then 6, then
    // 8 fds), the fourth does not.
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 4;
    spec.query_budget = 256;
    auto options = fast_options(4);

    std::vector<int> fillers;
    for (int i = 0; i < 16; ++i) {
        const int fd = ::open("/dev/null", O_RDONLY);
        ASSERT_GE(fd, 0);
        fillers.push_back(fd);
    }
    // open(2) returns the lowest free fd, so consecutive tail fds prove
    // every slot below them is occupied.
    ASSERT_EQ(fillers[15], fillers[14] + 1) << "fd table not dense";

    struct rlimit old {};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
    struct rlimit low = old;
    low.rlim_cur = static_cast<rlim_t>(fillers[15]) + 1 + 9;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

    std::string what;
    try {
        (void)dist::run_sharded(spec, options);
    } catch (const std::runtime_error& e) {
        what = e.what();
    }
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old), 0);
    for (const int fd : fillers) ::close(fd);

    ASSERT_FALSE(what.empty()) << "fd exhaustion mid-spawn must fail the run";
    EXPECT_NE(what.find("pipe() failed"), std::string::npos) << what;
    EXPECT_NE(what.find("already-launched worker(s)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("shard 0:"), std::string::npos)
        << "each launched worker's fate must be reported: " << what;
}

TEST(dist_supervisor, zero_max_attempts_is_rejected) {
    auto options = fast_options(1);
    options.faults.max_attempts = 0;
    EXPECT_THROW((void)dist::run_sharded(small_spec(), options),
                 std::invalid_argument);
}

TEST(dist_supervisor, backoff_for_is_exponential_and_capped) {
    dist::fault_policy policy;
    policy.backoff_base_seconds = 0.05;
    policy.backoff_cap_seconds = 2.0;
    EXPECT_DOUBLE_EQ(policy.backoff_for(1), 0.05);
    EXPECT_DOUBLE_EQ(policy.backoff_for(2), 0.10);
    EXPECT_DOUBLE_EQ(policy.backoff_for(3), 0.20);
    EXPECT_DOUBLE_EQ(policy.backoff_for(6), 1.60);
    EXPECT_DOUBLE_EQ(policy.backoff_for(7), 2.0) << "cap must bind";
    EXPECT_DOUBLE_EQ(policy.backoff_for(30), 2.0)
        << "large attempt counts must not overflow past the cap";
}

TEST(dist_supervisor, backoff_never_blocks_a_healthy_shard) {
    // Backoff is folded into the poll() timeout, never slept: while
    // shard 1 burns two crashes and two full backoff windows, shard 0's
    // pipes must keep draining and its job must complete long before
    // shard 1's retries are even allowed to start. A supervisor that
    // slept the backoff would delay shard 0 past the windows too.
    const auto spec = small_spec();
    const auto blocks = campaign::blocks_for(spec);
    ASSERT_GE(blocks.size(), 2u);
    const auto digest = dist::spec_digest(spec);

    std::vector<dist::supervised_job> jobs(2);
    for (std::uint32_t k = 0; k < 2; ++k) {
        dist::round_job rj;
        rj.spec = spec;
        rj.manifest.round = 1;
        rj.manifest.digest = digest;
        for (std::size_t p = k; p < blocks.size(); p += 2)
            rj.manifest.blocks.push_back(blocks[p]);
        jobs[k].args = {"--shard", std::to_string(k), "--shards", "2"};
        jobs[k].input = dist::round_job_to_json(rj);
        jobs[k].manifest = std::move(rj.manifest);
        jobs[k].shard = k;
        jobs[k].shard_count = 2;
    }

    // Crash shard 1 on attempts 1 and 2; with a 1-second backoff window
    // per failure, its success cannot land before T+2s.
    scoped_fault_plan plan{"crash:1:*:1,crash:1:*:2"};
    dist::fault_policy policy;
    policy.max_attempts = 3;
    policy.backoff_base_seconds = 1.0;
    policy.backoff_cap_seconds = 1.0;

    const auto start = std::chrono::steady_clock::now();
    dist::supervise_stats stats;
    const auto results =
        dist::run_jobs(dist::default_worker_path(), jobs, policy, {}, stats);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[1].ok);
    EXPECT_EQ(results[1].attempts, 3u);
    EXPECT_EQ(stats.retries, 2u);
    // Shard 1 must have waited out both windows...
    EXPECT_GE(elapsed, 2.0);
    // ...and healthy shard 0's single attempt, timed from its spawn at
    // the start of the call to the moment the loop saw it finish, must
    // have landed well inside the first one (generous margin for
    // sanitizer-slowed CI; the compute itself is a handful of
    // milliseconds).
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_LT(results[0].wall_seconds, 1.5)
        << "healthy shard was stalled behind another shard's backoff";
}

}  // namespace
}  // namespace pssp
