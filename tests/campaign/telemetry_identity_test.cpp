// The telemetry layer's one inviolable rule: it is a side channel. A
// campaign report is a pure function of its spec — turning on tracing,
// metrics, round observers, the result store or the flight recorder must
// not move a single report byte, at any --jobs level or shard count.
// This test runs the same campaign with everything off and with
// everything on, in-process (jobs 1 and 8) and through run_sharded (0, 1
// and 4 shards), and compares the serialized reports byte for byte. It
// also checks the promise obs/telemetry.hpp makes: every execution path
// reports the same rounds, timing and recovery fields aside.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/engine.hpp"
#include "dist/orchestrator.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "store/reader.hpp"

namespace pssp {
namespace {

campaign::campaign_spec small_spec() {
    // The full default 9-cell matrix with reduced cost knobs — identity is
    // knob-independent, so cheap knobs lose no coverage.
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 6;
    spec.brute_unknown_bits = 8;
    spec.query_budget = 1024;
    return spec;
}

std::string run_plain(campaign::campaign_spec spec, unsigned jobs) {
    spec.jobs = jobs;
    return campaign::engine{spec}.run().to_json();
}

std::string run_with_telemetry(campaign::campaign_spec spec, unsigned jobs) {
    spec.jobs = jobs;
    obs::enable_tracing(true);
    campaign::engine eng{spec};
    std::uint64_t rounds_seen = 0;
    eng.set_round_observer(
        [&rounds_seen](const obs::round_summary&) { ++rounds_seen; });
    const auto json = eng.run().to_json();
    obs::enable_tracing(false);
    obs::clear_spans_for_test();
    EXPECT_GE(rounds_seen, 1u) << "observer never fired — nothing was tested";
    return json;
}

TEST(telemetry_identity, in_process_report_identical_with_telemetry_on) {
    const auto spec = small_spec();
    const auto reference = run_plain(spec, 1);
    for (const unsigned jobs : {1u, 8u}) {
        EXPECT_EQ(run_plain(spec, jobs), reference) << "jobs=" << jobs;
        EXPECT_EQ(run_with_telemetry(spec, jobs), reference)
            << "jobs=" << jobs << " with telemetry";
    }
}

TEST(telemetry_identity, adaptive_report_identical_with_telemetry_on) {
    auto spec = small_spec();
    spec.trials_per_cell = 16;
    spec.adaptive = true;
    spec.min_trials_per_cell = 8;
    const auto reference = run_plain(spec, 1);
    for (const unsigned jobs : {1u, 8u})
        EXPECT_EQ(run_with_telemetry(spec, jobs), reference)
            << "jobs=" << jobs << " with telemetry";
}

TEST(telemetry_identity, sharded_report_identical_with_telemetry_on) {
    const auto spec = small_spec();
    const auto reference = run_plain(spec, 1);
    for (const unsigned shards : {0u, 1u, 4u}) {
        dist::sharded_options plain;
        plain.shards = shards;
        plain.flight_recorder = false;
        EXPECT_EQ(dist::run_sharded(spec, plain).to_json(), reference)
            << "shards=" << shards;

        // Everything on: a round observer, a result store (as
        // tools_campaign_shard --store does), orchestrator tracing, and
        // per-worker flight recorders.
        const std::string dir = ::testing::TempDir() + "telemetry_identity_" +
                                std::to_string(shards) + "_store";
        std::filesystem::remove_all(dir);
        std::uint64_t rounds_seen = 0;
        dist::sharded_options loud;
        loud.shards = shards;
        loud.checkpoint_dir = dir;
        loud.postmortem_dir = ::testing::TempDir();
        loud.round_observer = [&](const obs::round_summary&) { ++rounds_seen; };
        obs::enable_tracing(true);
        const auto report = dist::run_sharded(spec, loud).to_json();
        obs::enable_tracing(false);
        obs::clear_spans_for_test();
        EXPECT_EQ(report, reference) << "shards=" << shards << " with telemetry";
        EXPECT_GE(rounds_seen, 1u);
        const auto stored = store::load_store(dir);
        EXPECT_TRUE(stored.complete);
        EXPECT_EQ(stored.rounds.size(), rounds_seen)
            << "one stored round entry per round observed";
        std::filesystem::remove_all(dir);
    }
}

// What both execution paths must agree on about a round; the rest of
// round_summary — wall time, shard times, recovery totals — is filled by
// one path only.
using round_fields = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                                std::uint64_t, double, std::string>;

std::vector<round_fields> comparable(
    const std::vector<obs::round_summary>& rounds) {
    std::vector<round_fields> fields;
    for (const auto& r : rounds)
        fields.emplace_back(r.round, r.blocks, r.trials, r.cumulative_trials,
                            r.max_halfwidth, r.widest_cell);
    return fields;
}

std::vector<round_fields> engine_rounds(const campaign::campaign_spec& spec) {
    std::vector<obs::round_summary> rounds;
    campaign::engine eng{spec};
    eng.set_round_observer(
        [&rounds](const obs::round_summary& r) { rounds.push_back(r); });
    (void)eng.run();
    return comparable(rounds);
}

std::vector<round_fields> sharded_rounds(const campaign::campaign_spec& spec,
                                        unsigned shards) {
    std::vector<obs::round_summary> rounds;
    dist::sharded_options options;
    options.shards = shards;
    options.flight_recorder = false;
    options.round_observer = [&rounds](const obs::round_summary& r) {
        rounds.push_back(r);
    };
    (void)dist::run_sharded(spec, options);
    return comparable(rounds);
}

TEST(telemetry_identity, engine_and_sharded_runs_report_the_same_rounds) {
    // round, blocks, trials, cumulative_trials, max_halfwidth and
    // widest_cell come from the allocator's merged partials, so they match
    // line for line, in process (shards 0) and over workers; a fixed run
    // is the one round 0.
    const auto fixed = small_spec();
    const auto fixed_rounds = engine_rounds(fixed);
    ASSERT_EQ(fixed_rounds.size(), 1u);
    EXPECT_EQ(std::get<0>(fixed_rounds[0]), 0u);
    for (const unsigned shards : {0u, 2u})
        EXPECT_EQ(sharded_rounds(fixed, shards), fixed_rounds)
            << "shards=" << shards;

    auto adaptive = small_spec();
    adaptive.trials_per_cell = 16;
    adaptive.adaptive = true;
    adaptive.min_trials_per_cell = 8;
    adaptive.round_blocks = 4;
    const auto adaptive_rounds = engine_rounds(adaptive);
    EXPECT_GE(adaptive_rounds.size(), 2u);
    for (const unsigned shards : {0u, 2u})
        EXPECT_EQ(sharded_rounds(adaptive, shards), adaptive_rounds)
            << "shards=" << shards;
}

}  // namespace
}  // namespace pssp
