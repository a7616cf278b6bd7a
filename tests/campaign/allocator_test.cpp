// Adaptive allocator: deterministic round planning, CI-driven stopping,
// widest-first priority, and the real-engine identity + savings contracts
// the acceptance criteria pin.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "campaign/allocator.hpp"
#include "campaign/engine.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace pssp {
namespace {

using core::scheme_kind;

// 3 cells x 3 blocks (192 trials per cell), breadth-first default round.
campaign::campaign_spec synthetic_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {scheme_kind::ssp, scheme_kind::raf_ssp, scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 192;
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.1;
    spec.min_trials_per_cell = 64;
    spec.round_blocks = 0;  // one block per cell per round
    return spec;
}

// A synthetic block partial: the allocator's decisions consume only the
// integer tallies, so the Welford channels can stay empty.
campaign::cell_partial synth(std::uint64_t trials, std::uint64_t detections,
                             std::uint64_t hijacks = 0) {
    campaign::cell_partial p;
    p.trials = trials;
    p.detections = detections;
    p.hijacks = hijacks;
    return p;
}

TEST(campaign_allocator, halfwidth_metric_is_the_wider_of_both_cis) {
    // Empty cell: the vacuous {0,1} Wilson interval on both axes.
    EXPECT_DOUBLE_EQ(campaign::cell_ci_halfwidth(synth(0, 0)), 0.5);
    // Extreme detections but mid-range hijacks: the hijack CI dominates.
    const auto skewed = campaign::cell_ci_halfwidth(synth(64, 64, 32));
    const auto extreme = campaign::cell_ci_halfwidth(synth(64, 64, 0));
    EXPECT_GT(skewed, extreme);
    EXPECT_GT(skewed, 0.1);
    EXPECT_LT(extreme, 0.05);
}

TEST(campaign_allocator, converged_cells_stop_and_budget_flows_to_wide_ones) {
    campaign::adaptive_allocator alloc{synthetic_spec()};
    ASSERT_FALSE(alloc.done());

    // Round 1: nothing measured yet, every cell at half-width 0.5 — one
    // block per cell, ascending canonical index (cells own blocks
    // {0,1,2}, {3,4,5}, {6,7,8}).
    const auto round1 = alloc.plan_round();
    ASSERT_EQ(round1.size(), 3u);
    EXPECT_EQ(round1[0].index, 0u);
    EXPECT_EQ(round1[1].index, 3u);
    EXPECT_EQ(round1[2].index, 6u);

    // Cell 0 detects everything (tight CI), cell 1 sits at 0.5 (wide),
    // cell 2 hijacks everything (tight again).
    alloc.record_round(round1, std::vector<campaign::cell_partial>{
                                   synth(64, 64), synth(64, 32),
                                   synth(64, 0, 64)});
    EXPECT_TRUE(alloc.cell_converged(0));
    EXPECT_FALSE(alloc.cell_converged(1));
    EXPECT_TRUE(alloc.cell_converged(2));
    EXPECT_EQ(alloc.trials_run(), 192u);

    // Round 2: only cell 1 is active; the whole round budget (3 blocks)
    // flows to it, capped by its 2 remaining blocks.
    const auto round2 = alloc.plan_round();
    ASSERT_EQ(round2.size(), 2u);
    EXPECT_EQ(round2[0].index, 4u);
    EXPECT_EQ(round2[1].index, 5u);
    alloc.record_round(round2, std::vector<campaign::cell_partial>{
                                   synth(64, 32), synth(64, 32)});

    // 192 trials at p = 0.5 put the Wilson half-width just under 0.1.
    EXPECT_TRUE(alloc.cell_converged(1));
    EXPECT_TRUE(alloc.done());
    EXPECT_TRUE(alloc.plan_round().empty());
    EXPECT_EQ(alloc.rounds_completed(), 2u);
    EXPECT_EQ(alloc.trials_run(), 320u);

    // The report covers exactly the executed blocks — converged cells kept
    // their 64 trials, the wide cell ran its full 192.
    const auto report = alloc.report();
    ASSERT_EQ(report.cells.size(), 3u);
    EXPECT_EQ(report.cells[0].trials, 64u);
    EXPECT_EQ(report.cells[1].trials, 192u);
    EXPECT_EQ(report.cells[2].trials, 64u);
}

TEST(campaign_allocator, priority_is_halfwidth_desc_with_cell_index_tiebreak) {
    campaign::campaign_spec spec = synthetic_spec();
    spec.schemes = {scheme_kind::ssp, scheme_kind::p_ssp};
    spec.trials_per_cell = 128;  // 2 blocks per cell
    spec.round_blocks = 1;       // one block per round: pure priority probe
    spec.target_ci_halfwidth = 0.01;  // nothing converges in these few trials
    campaign::adaptive_allocator alloc{spec};

    // Round 1: both cells at 0.5 — the tiebreak picks cell 0 (block 0).
    auto round = alloc.plan_round();
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0].index, 0u);
    alloc.record_round(round, std::vector<campaign::cell_partial>{synth(64, 32)});

    // Round 2: cell 1 (still 0.5) is wider than cell 0 (~0.12) — block 2.
    round = alloc.plan_round();
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0].index, 2u);
    alloc.record_round(round, std::vector<campaign::cell_partial>{synth(64, 64)});

    // Round 3: cell 0 (~0.12) is now wider than cell 1 (~0.03) — block 1.
    round = alloc.plan_round();
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0].index, 1u);
    alloc.record_round(round, std::vector<campaign::cell_partial>{synth(64, 32)});

    // Round 4: cell 0 exhausted its budget; cell 1's last block runs.
    round = alloc.plan_round();
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0].index, 3u);
    alloc.record_round(round, std::vector<campaign::cell_partial>{synth(64, 64)});

    EXPECT_TRUE(alloc.done());
    EXPECT_EQ(alloc.trials_run(), spec.trial_count());
}

TEST(campaign_allocator, target_zero_degenerates_to_the_fixed_allocation) {
    // A Wilson half-width on n >= 1 trials is strictly positive, so target
    // 0 can never stop a cell early: the adaptive run covers the whole
    // canonical block space, exactly like fixed allocation.
    auto spec = synthetic_spec();
    spec.target_ci_halfwidth = 0.0;
    campaign::adaptive_allocator alloc{spec};
    while (!alloc.done()) {
        const auto round = alloc.plan_round();
        ASSERT_FALSE(round.empty());
        std::vector<campaign::cell_partial> partials;
        for (const auto& b : round) partials.push_back(synth(b.trials, 0));
        alloc.record_round(round, partials);
    }
    EXPECT_EQ(alloc.trials_run(), spec.trial_count());
    EXPECT_EQ(alloc.executed_blocks().size(), campaign::blocks_for(spec).size());
}

TEST(campaign_allocator, fixed_spec_is_one_round_of_every_block) {
    // A fixed campaign is round 0 holding blocks_for(spec) in canonical
    // order; nothing converges, so the allocator is done after it. The
    // adaptive knobs are ignored, not validated: neither a NaN target nor a
    // one-block round budget may throw or change the plan.
    auto plain = synthetic_spec();
    plain.adaptive = false;
    auto odd = plain;
    odd.target_ci_halfwidth = std::numeric_limits<double>::quiet_NaN();
    odd.round_blocks = 1;
    for (const auto& spec : {plain, odd}) {
        campaign::adaptive_allocator alloc{spec};
        EXPECT_EQ(alloc.round_number(), 0u);
        const auto round = alloc.plan_round();
        const auto canonical = campaign::blocks_for(spec);
        ASSERT_EQ(round.size(), canonical.size());
        for (std::size_t i = 0; i < round.size(); ++i)
            EXPECT_EQ(round[i].index, canonical[i].index);
        // Every cell detects everything — an adaptive run would stop them
        // all after one block; a fixed run ignores that.
        std::vector<campaign::cell_partial> partials;
        for (const auto& b : round)
            partials.push_back(synth(b.trials, b.trials));
        alloc.record_round(round, partials);
        for (std::uint64_t c = 0; c < spec.cell_count(); ++c)
            EXPECT_FALSE(alloc.cell_converged(c));
        EXPECT_TRUE(alloc.done());
        EXPECT_TRUE(alloc.plan_round().empty());
        EXPECT_EQ(alloc.rounds_completed(), 1u);
        EXPECT_EQ(alloc.trials_run(), spec.trial_count());
    }
}

TEST(campaign_allocator, fixed_engine_run_emits_one_golden_round_summary) {
    // The single round-0 line a fixed engine run reports, pinned byte for
    // byte (wall time zeroed: it is the one field that varies).
    campaign::campaign_spec spec;
    spec.schemes = {scheme_kind::ssp, scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::byte_by_byte,
                    attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 70;
    spec.master_seed = 77;
    spec.query_budget = 600;
    spec.jobs = 4;
    campaign::engine engine{spec};
    std::vector<obs::round_summary> rounds;
    engine.set_round_observer(
        [&rounds](const obs::round_summary& r) { rounds.push_back(r); });
    (void)engine.run();
    ASSERT_EQ(rounds.size(), 1u);
    rounds[0].wall_seconds = 0.0;
    EXPECT_EQ(obs::round_summary_json(rounds[0]),
              "{\"round\": 0, \"blocks\": 8, \"trials\": 280, "
              "\"cumulative_trials\": 280, \"max_halfwidth\": 0.037029, "
              "\"widest_cell\": \"nginx_m/SSP/byte_by_byte\", "
              "\"wall_seconds\": 0.000}");
}

TEST(campaign_allocator, min_trials_floor_blocks_early_convergence) {
    auto spec = synthetic_spec();
    spec.schemes = {scheme_kind::ssp};
    spec.trials_per_cell = 192;
    spec.min_trials_per_cell = 128;  // one tight block is not enough
    campaign::adaptive_allocator alloc{spec};

    auto round = alloc.plan_round();
    ASSERT_EQ(round.size(), 1u);
    alloc.record_round(round, std::vector<campaign::cell_partial>{synth(64, 64)});
    // Half-width ~0.028 <= 0.1, but only 64 of the required 128 trials ran.
    EXPECT_FALSE(alloc.cell_converged(0));
    ASSERT_FALSE(alloc.done());

    round = alloc.plan_round();
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0].index, 1u);
    alloc.record_round(round, std::vector<campaign::cell_partial>{synth(64, 64)});
    EXPECT_TRUE(alloc.cell_converged(0));
    EXPECT_TRUE(alloc.done());
    EXPECT_EQ(alloc.trials_run(), 128u);
}

TEST(campaign_allocator, record_round_validates_its_inputs) {
    campaign::adaptive_allocator alloc{synthetic_spec()};
    const auto round = alloc.plan_round();
    ASSERT_EQ(round.size(), 3u);

    // Planning again with a round in flight is a logic error.
    EXPECT_THROW((void)alloc.plan_round(), std::logic_error);

    // Wrong partial count.
    EXPECT_THROW(alloc.record_round(
                     round, std::vector<campaign::cell_partial>{synth(64, 0)}),
                 std::invalid_argument);
    // Wrong trial count inside a partial.
    EXPECT_THROW(
        alloc.record_round(round, std::vector<campaign::cell_partial>{
                                      synth(63, 0), synth(64, 0), synth(64, 0)}),
        std::invalid_argument);
    // Blocks that are not the planned ones.
    auto wrong = std::vector<campaign::block_ref>{round[0], round[1], round[1]};
    EXPECT_THROW(
        alloc.record_round(wrong, std::vector<campaign::cell_partial>{
                                      synth(64, 0), synth(64, 0), synth(64, 0)}),
        std::invalid_argument);
    // Recording with no round planned is a logic error.
    alloc.record_round(round, std::vector<campaign::cell_partial>{
                                  synth(64, 0), synth(64, 0), synth(64, 0)});
    EXPECT_THROW(alloc.record_round(round, std::vector<campaign::cell_partial>{
                                               synth(64, 0), synth(64, 0),
                                               synth(64, 0)}),
                 std::logic_error);
}

TEST(campaign_allocator, rejects_bad_targets) {
    auto spec = synthetic_spec();
    spec.target_ci_halfwidth = -0.1;
    EXPECT_THROW(campaign::adaptive_allocator{spec}, std::invalid_argument);
    EXPECT_THROW(campaign::engine{spec}, std::invalid_argument);
    spec.target_ci_halfwidth = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(campaign::adaptive_allocator{spec}, std::invalid_argument);
}

TEST(campaign_allocator, degenerate_specs_start_out_done_with_valid_reports) {
    // Empty axes and zero budgets are well-defined: no rounds, and the
    // report is a valid (parseable) zero-cell or zero-trial document.
    for (auto mutate : {+[](campaign::campaign_spec& s) { s.schemes.clear(); },
                        +[](campaign::campaign_spec& s) { s.attacks.clear(); },
                        +[](campaign::campaign_spec& s) { s.targets.clear(); },
                        +[](campaign::campaign_spec& s) {
                            s.trials_per_cell = 0;
                        }}) {
        auto spec = synthetic_spec();
        mutate(spec);
        campaign::adaptive_allocator alloc{spec};
        EXPECT_TRUE(alloc.done());
        EXPECT_TRUE(alloc.plan_round().empty());
        EXPECT_EQ(alloc.trials_run(), 0u);
        const auto report = alloc.report();
        // Every cell of the (possibly empty) cross product is present with
        // zero trials and vacuous CIs, and the JSON is well-formed.
        EXPECT_EQ(report.cells.size(), spec.cell_count());
        for (const auto& c : report.cells) {
            EXPECT_EQ(c.trials, 0u);
            EXPECT_DOUBLE_EQ(c.detection_ci.lo, 0.0);
            EXPECT_DOUBLE_EQ(c.detection_ci.hi, 1.0);
        }
        EXPECT_NO_THROW((void)util::parse_json(report.to_json()));
    }
}

// ---- Real-engine contracts ----

campaign::campaign_spec real_adaptive_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {scheme_kind::ssp, scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::byte_by_byte,
                    attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 80;  // 2 ragged blocks per cell
    spec.master_seed = 77;
    spec.query_budget = 600;
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.2;
    spec.min_trials_per_cell = 16;
    return spec;
}

TEST(campaign_allocator, adaptive_report_identical_across_jobs_levels) {
    auto spec = real_adaptive_spec();
    spec.jobs = 1;
    const auto serial = campaign::engine{spec}.run().to_json();
    spec.jobs = 8;
    const auto parallel = campaign::engine{spec}.run().to_json();
    EXPECT_EQ(serial, parallel);
    // And the report says what ran it: the adaptive knobs are part of the
    // outcome-relevant record.
    EXPECT_NE(serial.find("\"adaptive\":true"), std::string::npos);
}

TEST(campaign_allocator, adaptive_stops_cells_the_fixed_run_would_overspend) {
    // Acceptance-criteria floor, in-process: on the default campaign matrix
    // (with test-sized execution knobs) the adaptive run must save >= 25%
    // of the fixed trial budget at the same target precision.
    auto spec = campaign::default_spec();
    spec.trials_per_cell = 112;
    spec.query_budget = 1024;
    spec.brute_unknown_bits = 8;
    spec.jobs = 0;  // all cores
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.1;
    spec.min_trials_per_cell = 64;
    const auto report = campaign::engine{spec}.run();

    std::uint64_t adaptive_trials = 0;
    for (const auto& c : report.cells) {
        adaptive_trials += c.trials;
        // Whatever stopped early must actually have met the target (cells
        // that ran the whole budget are allowed to stay wide).
        if (c.trials < spec.trials_per_cell) {
            EXPECT_LE(c.detection_ci.half_width(), spec.target_ci_halfwidth);
            EXPECT_LE(c.hijack_ci.half_width(), spec.target_ci_halfwidth);
            EXPECT_GE(c.trials, spec.min_trials_per_cell);
        }
    }
    const auto fixed_trials = spec.trial_count();
    EXPECT_LE(adaptive_trials * 4, fixed_trials * 3)
        << "adaptive ran " << adaptive_trials << " of " << fixed_trials
        << " fixed trials — less than 25% saved";
}

}  // namespace
}  // namespace pssp
