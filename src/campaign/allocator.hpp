// Deterministic round-based trial allocation — the only one there is.
//
// A fixed campaign (spec.adaptive == false) is a single round numbered 0
// that holds every block of campaign::blocks_for(spec) in canonical order;
// no cell ever counts as converged, and the adaptive knobs
// (target_ci_halfwidth, round_blocks, min_trials_per_cell) are ignored.
// Everything below is about adaptive campaigns.
//
// Fixed allocation runs trials_per_cell trials in every cell even though
// Table I's probabilities differ across cells by orders of magnitude — a
// cell sitting at a detection rate of ~0 or ~1 has a tight Wilson interval
// after one reduction block, while a mid-range cell needs many. The
// allocator reclaims that waste: the campaign runs in rounds over the
// canonical 64-trial block space (campaign::blocks_for), and after each
// round every cell's Wilson CIs are recomputed from its merged block
// partials. Cells whose half-width has reached spec.target_ci_halfwidth
// stop; the next round's blocks go to the widest-CI cells first
// (half-width descending, cell index ascending as the tiebreak).
//
// Determinism contract — the part PR 3's identity oracle extends over:
//  * A round plan is a pure function of the merged partials recorded so
//    far, which are themselves pure functions of (master_seed, block).
//    Nothing about execution order, jobs, shard count, or wall clock can
//    move an allocation decision.
//  * Stopping decisions consume only integer tallies (trials, hijacks,
//    detections) through util::wilson_interval — no float whose value
//    could depend on merge order.
//  * A cell's executed blocks are always a prefix of its canonical blocks,
//    so the final report is campaign::assemble_report over a subset of
//    blocks_for(spec) in canonical order — the same reduction every
//    campaign bottoms out in.
//
// The engine's round loop (in-process) and the dist orchestrator's round
// fan-out (multi-process) both drive exactly this class, fixed or adaptive,
// which is why a campaign is byte-identical at any --jobs level and any
// shard count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/telemetry.hpp"

namespace pssp::campaign {

// The convergence metric: the wider of the cell's detection and hijack
// Wilson 95% half-widths (both are reported with CIs, so both must be
// tight before the cell may stop). 0.5 for an empty cell — the vacuous
// {0,1} interval.
[[nodiscard]] double cell_ci_halfwidth(const cell_partial& merged);

class adaptive_allocator {
  public:
    // Validates the adaptive knobs of an adaptive spec (target_ci_halfwidth
    // must be finite and >= 0); a fixed spec's are never read. Degenerate
    // specs (empty axis, trials_per_cell == 0) are legal and simply start
    // out done().
    explicit adaptive_allocator(campaign_spec spec);

    // The next round's blocks, ascending by canonical block index. Empty
    // means the campaign is finished (every cell converged or exhausted
    // its trials_per_cell budget; a fixed campaign after its one round).
    // Throws std::logic_error if the previous round has not been
    // record_round()ed yet.
    [[nodiscard]] std::vector<block_ref> plan_round();

    // Records a completed round: `blocks` must be exactly the last
    // plan_round() result and `partials` index-aligned with it.
    void record_round(std::span<const block_ref> blocks,
                      std::span<const cell_partial> partials);

    // Checkpoint replay: plan_round() + validate that the checkpointed
    // blocks are exactly the plan + record_round(). Because a round plan
    // is a pure function of the rounds recorded before it, feeding a
    // resumed allocator the checkpointed rounds in order reconstructs its
    // state bit-for-bit; any divergence (spec edited, log from a different
    // run) throws std::runtime_error naming the round and block. Throws if
    // the allocator is already done and a round is still being replayed.
    void replay_round(std::uint64_t round, std::span<const block_ref> blocks,
                      std::span<const cell_partial> partials);

    // True once plan_round() would return empty (and no round is pending).
    [[nodiscard]] bool done() const;

    [[nodiscard]] std::uint64_t rounds_completed() const noexcept {
        return rounds_completed_;
    }
    // The number of the round in flight (or, between rounds, of the next
    // one): 0 for a fixed campaign's single round, 1..N for adaptive
    // rounds. Workers, checkpoints and telemetry all carry this number.
    [[nodiscard]] std::uint64_t round_number() const noexcept {
        return spec_.adaptive ? rounds_completed_ + 1 : 0;
    }
    // Trials recorded so far — the quantity the savings benchmark compares
    // against spec.trial_count().
    [[nodiscard]] std::uint64_t trials_run() const noexcept {
        return trials_run_;
    }

    // Converged = stopped because the CI target was met (not merely
    // because the budget ran out); cell indexed as in campaign::cells_for.
    [[nodiscard]] bool cell_converged(std::uint64_t cell) const;

    // Every block recorded so far, ascending by canonical index, with its
    // partial — the inputs report() hands to campaign::assemble_report.
    [[nodiscard]] std::vector<block_ref> executed_blocks() const;
    [[nodiscard]] std::vector<cell_partial> executed_partials() const;

    // The campaign report over the executed blocks (typically called once
    // done(); legal earlier for progress snapshots).
    [[nodiscard]] campaign_report report() const;

    // The telemetry line for a just-recorded round `round` of `blocks`:
    // blocks and trials issued, cumulative trials, and the widest Wilson
    // half-width among the cells not yet converged. Wall time, shard times
    // and recovery totals are the caller's to fill in.
    [[nodiscard]] obs::round_summary summarize_round(
        std::uint64_t round, std::span<const block_ref> blocks) const;

  private:
    struct cell_state {
        std::uint64_t first_block = 0;   // canonical index of block 0
        std::uint64_t block_count = 0;   // canonical blocks in this cell
        std::uint64_t scheduled = 0;     // blocks handed out by plan_round
        cell_partial merged;             // in-order merge of recorded blocks
    };

    [[nodiscard]] std::uint64_t round_budget() const noexcept;
    [[nodiscard]] bool converged(const cell_state& c) const;
    [[nodiscard]] bool cell_active(const cell_state& c) const;

    campaign_spec spec_;
    std::vector<block_ref> canonical_;           // blocks_for(spec)
    std::vector<cell_state> cells_;
    std::vector<cell_partial> partials_;         // per canonical block
    std::vector<bool> recorded_;                 // per canonical block
    std::vector<block_ref> pending_;             // planned, not yet recorded
    bool round_in_flight_ = false;
    std::uint64_t rounds_completed_ = 0;
    std::uint64_t trials_run_ = 0;
};

}  // namespace pssp::campaign
