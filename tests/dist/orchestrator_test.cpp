// The multi-process fan-out, end to end: real fork/exec of
// tools_campaign_worker (a sibling of this test binary — everything
// builds into one directory), real pipes, real merge. Pins the acceptance
// contract: the merged report for the default spec is byte-identical to
// the single-process report at shard counts {1, 2, 4, 8}, and a crashed
// worker fails the run loudly instead of silently dropping trials.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/orchestrator.hpp"
#include "util/json.hpp"

namespace pssp {
namespace {

TEST(dist_orchestrator, default_worker_path_is_a_sibling) {
    const auto path = dist::default_worker_path();
    EXPECT_NE(path.find("tools_campaign_worker"), std::string::npos);
}

TEST(dist_orchestrator, default_spec_byte_identical_at_1_2_4_8_shards) {
    // The default 9-cell matrix (including brute_force) with reduced trial
    // and search-space knobs so five full campaigns fit in a unit-test
    // budget; the CI job runs the same oracle at the full 112 trials per
    // cell. Byte-identity is knob-independent, so cheap knobs lose nothing.
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 6;
    spec.brute_unknown_bits = 8;
    spec.query_budget = 1024;
    spec.jobs = 4;
    const auto reference = campaign::engine{spec}.run().to_json();
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
        dist::sharded_options options;
        options.shards = shards;
        const auto report = dist::run_sharded(spec, options);
        EXPECT_EQ(report.to_json(), reference) << "shards=" << shards;
    }
}

TEST(dist_orchestrator, more_shards_than_blocks_still_merges) {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 2;  // one block total
    spec.master_seed = 11;
    const auto reference = campaign::engine{spec}.run().to_json();
    dist::sharded_options options;
    options.shards = 3;  // two shards own nothing and report empty partials
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
}

TEST(dist_orchestrator, adaptive_report_byte_identical_at_1_2_4_8_shards) {
    // The tentpole's acceptance oracle, end to end: a CI-driven adaptive
    // campaign — allocator rounds in the parent, per-round block manifests
    // fork/exec'd to real workers — merges byte-identically to the
    // in-process adaptive engine at every shard count.
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 96;  // 2 ragged blocks per cell
    spec.brute_unknown_bits = 8;
    spec.query_budget = 1024;
    spec.jobs = 4;
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.1;
    spec.min_trials_per_cell = 32;
    const auto reference_report = campaign::engine{spec}.run();
    const auto reference = reference_report.to_json();
    // The adaptive run must actually have exercised the early-stop path,
    // or this test would pin identity of a de-facto fixed campaign.
    std::uint64_t trials = 0;
    for (const auto& c : reference_report.cells) trials += c.trials;
    ASSERT_LT(trials, spec.trial_count()) << "no cell stopped early";
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
        dist::sharded_options options;
        options.shards = shards;
        const auto report = dist::run_sharded(spec, options);
        EXPECT_EQ(report.to_json(), reference) << "shards=" << shards;
    }
}

TEST(dist_orchestrator, crashed_worker_fails_the_run_loudly) {
    // Regression: the error used to say only "shard 2: worker exited with
    // status 3" — no argv to rerun the worker, no round. It must now carry
    // the shard, the round number, the decoded wait status, and the exact
    // worker command line, and leave a postmortem file behind.
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 4;
    ::setenv("PSSP_CAMPAIGN_WORKER_CRASH", "2", /*overwrite=*/1);
    dist::sharded_options options;
    options.shards = 4;
    options.postmortem_dir = ::testing::TempDir();
    try {
        (void)dist::run_sharded(spec, options);
        ::unsetenv("PSSP_CAMPAIGN_WORKER_CRASH");
        FAIL() << "a dead shard must fail the campaign";
    } catch (const std::runtime_error& e) {
        ::unsetenv("PSSP_CAMPAIGN_WORKER_CRASH");
        const std::string what = e.what();
        EXPECT_NE(what.find("shard 2"), std::string::npos)
            << "error must name the failed shard: " << what;
        EXPECT_NE(what.find("round 0"), std::string::npos)
            << "error must name the round: " << what;
        EXPECT_NE(what.find("exited with status 3"), std::string::npos)
            << "error must decode the wait status: " << what;
        EXPECT_NE(what.find("--shard 2 --shards 4"), std::string::npos)
            << "error must carry the worker argv: " << what;
    }
    // The flight-recorder postmortem: valid JSON identifying the worker,
    // with its block manifest and the (possibly empty) flight recording.
    const auto path = options.postmortem_dir + "/obs-postmortem-2.json";
    std::ifstream in{path};
    ASSERT_TRUE(in.good()) << "missing postmortem: " << path;
    std::ostringstream text;
    text << in.rdbuf();
    const auto doc = util::parse_json(text.str());
    EXPECT_EQ(doc.at("shard").as_u64(), 2u);
    EXPECT_EQ(doc.at("round").as_u64(), 0u);
    EXPECT_FALSE(doc.at("argv").elements().empty());
    EXPECT_FALSE(doc.at("blocks").elements().empty());
    std::remove(path.c_str());
    // Flight files themselves must not linger after the failure.
    const auto flight = options.postmortem_dir + "/obs-flight-" +
                        std::to_string(::getpid()) + "-2.json";
    EXPECT_FALSE(std::ifstream{flight}.good())
        << "flight file not cleaned up: " << flight;
}

TEST(dist_orchestrator, crashed_adaptive_worker_names_the_round) {
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 8;
    spec.adaptive = true;
    spec.min_trials_per_cell = 4;
    ::setenv("PSSP_CAMPAIGN_WORKER_CRASH", "1", /*overwrite=*/1);
    dist::sharded_options options;
    options.shards = 2;
    options.postmortem_dir = ::testing::TempDir();
    try {
        (void)dist::run_sharded(spec, options);
        ::unsetenv("PSSP_CAMPAIGN_WORKER_CRASH");
        FAIL() << "a dead shard must fail the campaign";
    } catch (const std::runtime_error& e) {
        ::unsetenv("PSSP_CAMPAIGN_WORKER_CRASH");
        const std::string what = e.what();
        EXPECT_NE(what.find("shard 1 (round 1)"), std::string::npos)
            << "adaptive failure must name shard and round: " << what;
        EXPECT_NE(what.find("--shard 1 --shards 2"), std::string::npos)
            << "error must carry the worker argv: " << what;
    }
    const auto path = options.postmortem_dir + "/obs-postmortem-1.json";
    std::ifstream in{path};
    ASSERT_TRUE(in.good()) << "missing postmortem: " << path;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(util::parse_json(text.str()).at("round").as_u64(), 1u);
    std::remove(path.c_str());
}

TEST(dist_orchestrator, missing_worker_binary_fails_loudly) {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 1;
    dist::sharded_options options;
    options.shards = 2;
    options.worker_path = "/nonexistent/campaign_worker";
    EXPECT_THROW((void)dist::run_sharded(spec, options), std::runtime_error);
}

TEST(dist_orchestrator, zero_shards_run_in_process_and_take_no_fleet) {
    // shards == 0 runs every round on this process's threads: a worker
    // that cannot exec is never needed, and the report is the engine's,
    // fixed and adaptive.
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 16;
    spec.brute_unknown_bits = 8;
    spec.query_budget = 1024;
    spec.jobs = 4;
    dist::sharded_options options;
    options.shards = 0;
    options.worker_path = "/nonexistent/campaign_worker";
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(),
              campaign::engine{spec}.run().to_json());
    spec.adaptive = true;
    spec.min_trials_per_cell = 8;
    spec.round_blocks = 4;
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(),
              campaign::engine{spec}.run().to_json());

    options.net = dist::net_options{};
    options.net->fleet_workers = 2;
    EXPECT_THROW((void)dist::run_sharded(spec, options), std::invalid_argument);
}

}  // namespace
}  // namespace pssp
