// The compute worker's one protocol, end to end: a real
// tools_campaign_worker process reads lease frames on stdin until EOF and
// answers each with a result frame on stdout. Pins that one process fed N
// leases answers byte-for-byte what N one-lease processes answer, and
// what the in-process engine computes for the same blocks; that a crash
// lease mid-stream exits 3 with the results before it already delivered;
// and that the local channel still spawns one worker process per job.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/wait.h>

#include "campaign/engine.hpp"
#include "dist/chaos.hpp"
#include "dist/child.hpp"
#include "dist/frame.hpp"
#include "dist/orchestrator.hpp"
#include "obs/registry.hpp"

namespace pssp {
namespace {

// Two cells of two canonical blocks each.
campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 128;
    spec.master_seed = 29;
    spec.query_budget = 512;
    return spec;
}

struct lease_case {
    std::uint32_t shard = 0;
    std::uint32_t shard_count = 1;
    unsigned attempt = 1;
    std::uint64_t round = 0;
    std::vector<std::size_t> blocks;  // canonical block indices
};

dist::supervised_job make_job(const campaign::campaign_spec& spec,
                              const lease_case& c) {
    const auto canonical = campaign::blocks_for(spec);
    dist::round_job rj;
    rj.spec = spec;
    rj.manifest.round = c.round;
    rj.manifest.digest = dist::spec_digest(spec);
    for (const auto b : c.blocks) rj.manifest.blocks.push_back(canonical[b]);
    dist::supervised_job job;
    job.input = dist::round_job_to_json(rj);
    job.manifest = std::move(rj.manifest);
    job.shard = c.shard;
    job.shard_count = c.shard_count;
    return job;
}

std::string lease_frame(const campaign::campaign_spec& spec,
                        const lease_case& c) {
    return dist::encode_frame(dist::frame_type::lease,
                              dist::lease_payload(make_job(spec, c), c.attempt));
}

// The result frame a worker must answer `c` with: the in-process engine's
// partials for the same blocks, under the lease's envelope.
std::string expected_result(const campaign::campaign_spec& spec,
                            const lease_case& c) {
    const auto job = make_job(spec, c);
    campaign::engine engine{spec};
    const auto partials = engine.run_blocks(job.manifest.blocks);
    dist::partial_report report;
    report.shard_index = c.shard;
    report.shard_count = c.shard_count;
    report.round = c.round;
    report.digest = job.manifest.digest;
    for (std::size_t i = 0; i < partials.size(); ++i)
        report.blocks.push_back(dist::partial_block{
            job.manifest.blocks[i].index, job.manifest.blocks[i].cell,
            partials[i]});
    dist::result_envelope env;
    env.shard = c.shard;
    env.shard_count = c.shard_count;
    env.attempt = c.attempt;
    return dist::encode_frame(
        dist::frame_type::result,
        dist::encode_result(env, dist::partial_to_json(report)));
}

struct worker_run {
    int status = -1;
    std::string output;
};

// Runs one worker process on `input` (then EOF) to completion.
worker_run run_worker(const std::string& input,
                      const std::vector<std::string>& args = {}) {
    const dist::scoped_sigpipe_ignore ignore_pipe;
    dist::child_process child;
    EXPECT_EQ(child.spawn(dist::default_worker_path(), args, {}), "");
    child.send(input);
    child.end_input();
    while (!child.output_done()) {
        std::vector<pollfd> fds;
        child.add_poll_fds(fds);
        if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0)
            continue;
        for (const auto& p : fds) child.service(p);
    }
    worker_run run;
    run.status = child.reap();
    run.output = child.output();
    return run;
}

bool exited_with(int status, int code) {
    return WIFEXITED(status) && WEXITSTATUS(status) == code;
}

const std::vector<lease_case>& cases() {
    static const std::vector<lease_case> all{
        {0, 2, 1, 1, {0}},
        {1, 2, 2, 1, {1, 2}},
        {0, 1, 1, 2, {3}},
    };
    return all;
}

TEST(dist_worker, one_process_serves_many_leases_byte_identically) {
    const auto spec = small_spec();
    std::string stream;
    std::string expected;
    for (const auto& c : cases()) {
        const auto want = expected_result(spec, c);
        // A one-lease process, pinned to the slice as the local channel
        // pins it, answers exactly what the engine computes in-process.
        const auto single = run_worker(
            lease_frame(spec, c),
            {"--shard", std::to_string(c.shard), "--shards",
             std::to_string(c.shard_count)});
        EXPECT_TRUE(exited_with(single.status, 0)) << single.status;
        EXPECT_EQ(single.output, want) << "shard " << c.shard;
        stream += lease_frame(spec, c);
        expected += want;
    }
    // One unpinned process fed every lease answers each in order, with
    // the same bytes: nothing carries over from one lease to the next.
    const auto many = run_worker(stream);
    EXPECT_TRUE(exited_with(many.status, 0)) << many.status;
    EXPECT_EQ(many.output, expected);
}

TEST(dist_worker, crash_lease_mid_stream_exits_3_after_earlier_results) {
    const auto spec = small_spec();
    // The chaos coordinate comes from the second lease's envelope
    // (shard 1, round 1, attempt 2), not from the process environment.
    ::setenv(dist::fault_plan_env, "crash:1:1:2", /*overwrite=*/1);
    std::string stream;
    for (const auto& c : cases()) stream += lease_frame(spec, c);
    const auto run = run_worker(stream);
    ::unsetenv(dist::fault_plan_env);
    EXPECT_TRUE(exited_with(run.status, 3)) << run.status;
    EXPECT_EQ(run.output, expected_result(spec, cases()[0]))
        << "the lease before the crash must already be answered, and "
           "nothing after it";
}

TEST(dist_worker, pinned_worker_refuses_a_foreign_slice) {
    const auto spec = small_spec();
    const auto run =
        run_worker(lease_frame(spec, cases()[0]), {"--shard", "1", "--shards", "2"});
    EXPECT_TRUE(exited_with(run.status, 2)) << run.status;
    EXPECT_EQ(run.output, "");
}

TEST(dist_worker, local_channel_spawns_one_process_per_job) {
    // The local channel sends each worker one lease and then EOF, so the
    // spawn count is the job count (rounds_pipes pins 576 of them).
    auto spec = small_spec();
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;
    spec.round_blocks = 2;
    dist::sharded_options options;
    options.shards = 2;
    options.flight_recorder = false;
    options.postmortem_dir = ::testing::TempDir();
    std::uint64_t jobs = 0;
    std::uint64_t rounds = 0;
    options.round_observer = [&](const obs::round_summary& summary) {
        jobs += summary.shards.size();
        rounds += 1;
    };
    const auto spawned = obs::counter("dist.spawned_workers");
    const auto before = obs::value(spawned);
    const auto report = dist::run_sharded(spec, options);
    EXPECT_EQ(report.to_json(), campaign::engine{spec}.run().to_json());
    EXPECT_GT(jobs, rounds) << "some round must split over both shards";
    EXPECT_EQ(obs::value(spawned) - before, jobs);
}

}  // namespace
}  // namespace pssp
