#include "campaign/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pssp::campaign {

double cell_ci_halfwidth(const cell_partial& merged) {
    // Integer tallies only: the decision metric must be identical whatever
    // process or thread computed the partials it is derived from.
    const auto detection =
        util::wilson_interval(merged.detections, merged.trials);
    const auto hijack = util::wilson_interval(merged.hijacks, merged.trials);
    return std::max(detection.half_width(), hijack.half_width());
}

adaptive_allocator::adaptive_allocator(campaign_spec spec)
    : spec_{std::move(spec)} {
    if (spec_.adaptive && (!std::isfinite(spec_.target_ci_halfwidth) ||
                           spec_.target_ci_halfwidth < 0.0))
        throw std::invalid_argument{
            "adaptive_allocator: target_ci_halfwidth must be finite and >= 0"};
    canonical_ = blocks_for(spec_);
    partials_.resize(canonical_.size());
    recorded_.assign(canonical_.size(), false);
    cells_.resize(spec_.cell_count());
    for (const auto& b : canonical_) {
        auto& cell = cells_[b.cell];
        if (cell.block_count == 0) cell.first_block = b.index;
        ++cell.block_count;
    }
}

std::uint64_t adaptive_allocator::round_budget() const noexcept {
    if (!spec_.adaptive) return canonical_.size();  // one all-blocks round
    if (spec_.round_blocks != 0) return spec_.round_blocks;
    // Breadth-first default: one block per cell per round. Deliberately a
    // function of the spec alone — never of jobs or shard count.
    return std::max<std::uint64_t>(spec_.cell_count(), 1);
}

bool adaptive_allocator::converged(const cell_state& c) const {
    // The stop rule, in one place: the trial floor (capped by the budget so
    // an over-large floor cannot deadlock) and the CI target. A fixed
    // campaign never stops a cell early.
    if (!spec_.adaptive) return false;
    const std::uint64_t floor =
        std::min(spec_.min_trials_per_cell, spec_.trials_per_cell);
    return c.merged.trials >= floor &&
           cell_ci_halfwidth(c.merged) <= spec_.target_ci_halfwidth;
}

bool adaptive_allocator::cell_active(const cell_state& c) const {
    return c.scheduled < c.block_count && !converged(c);
}

std::vector<block_ref> adaptive_allocator::plan_round() {
    if (round_in_flight_)
        throw std::logic_error{
            "adaptive_allocator: previous round not recorded"};

    // Priority order: widest CI first, canonical cell index as the
    // deterministic tiebreak. Computed once per round, from merged
    // partials only.
    struct candidate {
        std::uint64_t cell;
        double halfwidth;
    };
    std::vector<candidate> active;
    for (std::uint64_t c = 0; c < cells_.size(); ++c)
        if (cell_active(cells_[c]))
            active.push_back(candidate{c, cell_ci_halfwidth(cells_[c].merged)});
    if (active.empty()) return {};
    std::sort(active.begin(), active.end(),
              [](const candidate& a, const candidate& b) {
                  if (a.halfwidth != b.halfwidth)
                      return a.halfwidth > b.halfwidth;
                  return a.cell < b.cell;
              });

    // Cyclic fill: each pass hands every still-active cell its next
    // canonical block, widest cells first, until the round budget or the
    // cells' remaining blocks run out. A cell's blocks are therefore always
    // scheduled as a prefix of its canonical run.
    std::vector<block_ref> round;
    std::uint64_t budget = round_budget();
    bool took_one = true;
    while (budget > 0 && took_one) {
        took_one = false;
        for (const auto& cand : active) {
            if (budget == 0) break;
            auto& cell = cells_[cand.cell];
            if (cell.scheduled >= cell.block_count) continue;
            round.push_back(canonical_[cell.first_block + cell.scheduled]);
            ++cell.scheduled;
            --budget;
            took_one = true;
        }
    }
    std::sort(round.begin(), round.end(),
              [](const block_ref& a, const block_ref& b) {
                  return a.index < b.index;
              });
    pending_ = round;
    round_in_flight_ = true;
    return round;
}

void adaptive_allocator::record_round(std::span<const block_ref> blocks,
                                      std::span<const cell_partial> partials) {
    if (!round_in_flight_)
        throw std::logic_error{"adaptive_allocator: no round planned"};
    if (blocks.size() != pending_.size() || blocks.size() != partials.size())
        throw std::invalid_argument{
            "adaptive_allocator: record_round size mismatch"};
    for (std::size_t i = 0; i < blocks.size(); ++i)
        if (blocks[i].index != pending_[i].index)
            throw std::invalid_argument{
                "adaptive_allocator: recorded blocks differ from the plan"};
    // blocks is ascending by canonical index, so each cell's partials merge
    // in canonical order — the same order assemble_report will replay.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const auto& b = blocks[i];
        if (partials[i].trials != b.trials)
            throw std::invalid_argument{
                "adaptive_allocator: partial trial count mismatch"};
        partials_[b.index] = partials[i];
        recorded_[b.index] = true;
        cells_[b.cell].merged.merge(partials[i]);
        trials_run_ += b.trials;
    }
    pending_.clear();
    round_in_flight_ = false;
    ++rounds_completed_;
}

void adaptive_allocator::replay_round(std::uint64_t round,
                                      std::span<const block_ref> blocks,
                                      std::span<const cell_partial> partials) {
    if (round != round_number())
        throw std::runtime_error{
            "adaptive_allocator: replay out of order (checkpoint round " +
            std::to_string(round) + " after " +
            std::to_string(rounds_completed_) + " replayed rounds)"};
    if (done())
        throw std::runtime_error{
            "adaptive_allocator: checkpoint round " + std::to_string(round) +
            " replayed into a finished campaign — checkpoint does not match "
            "this spec"};
    const auto plan = plan_round();
    if (plan.size() != blocks.size())
        throw std::runtime_error{
            "adaptive_allocator: checkpoint round " + std::to_string(round) +
            " has " + std::to_string(blocks.size()) + " blocks, this spec plans " +
            std::to_string(plan.size()) +
            " — checkpoint belongs to a different campaign"};
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (plan[i].index != blocks[i].index)
            throw std::runtime_error{
                "adaptive_allocator: checkpoint round " + std::to_string(round) +
                " block " + std::to_string(blocks[i].index) +
                " differs from the planned block " +
                std::to_string(plan[i].index) +
                " — checkpoint belongs to a different campaign"};
    record_round(plan, partials);
}

bool adaptive_allocator::done() const {
    if (round_in_flight_) return false;
    for (const auto& cell : cells_)
        if (cell_active(cell)) return false;
    return true;
}

bool adaptive_allocator::cell_converged(std::uint64_t cell) const {
    return converged(cells_.at(cell));
}

std::vector<block_ref> adaptive_allocator::executed_blocks() const {
    std::vector<block_ref> blocks;
    for (std::size_t i = 0; i < canonical_.size(); ++i)
        if (recorded_[i]) blocks.push_back(canonical_[i]);
    return blocks;
}

std::vector<cell_partial> adaptive_allocator::executed_partials() const {
    std::vector<cell_partial> partials;
    for (std::size_t i = 0; i < canonical_.size(); ++i)
        if (recorded_[i]) partials.push_back(partials_[i]);
    return partials;
}

campaign_report adaptive_allocator::report() const {
    const auto blocks = executed_blocks();
    const auto partials = executed_partials();
    return assemble_report(spec_, blocks, partials);
}

obs::round_summary adaptive_allocator::summarize_round(
    std::uint64_t round, std::span<const block_ref> blocks) const {
    obs::round_summary summary;
    summary.round = round;
    summary.blocks = blocks.size();
    for (const auto& b : blocks) summary.trials += b.trials;
    summary.cumulative_trials = trials_run_;
    const auto ids = cells_for(spec_);
    for (std::uint64_t c = 0; c < cells_.size(); ++c) {
        if (converged(cells_[c])) continue;
        const double hw = cell_ci_halfwidth(cells_[c].merged);
        if (hw > summary.max_halfwidth) {
            summary.max_halfwidth = hw;
            summary.widest_cell = cell_name(ids[c]);
        }
    }
    return summary;
}

}  // namespace pssp::campaign
