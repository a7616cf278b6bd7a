// The parallel Monte-Carlo campaign engine.
//
// Execution model: the spec's cross product is flattened into one global
// trial index space (cell-major), grouped into canonical reduction blocks
// (campaign::blocks_for). A fixed pool of host threads pops *blocks* off
// an atomic counter; each trial derives two independent PRNG streams
// (server-side and attacker-side) purely from (master_seed, global trial
// index) via splitmix64, boots its own fork server from the cell's shared
// victim build, runs one attack strategy, and add()s its record into the
// block's mergeable partial — sequentially, in trial order. Block partials
// then merge in canonical order (campaign::assemble_report). Nothing
// observable depends on scheduling, so a 10k-trial campaign is
// bit-reproducible at any --jobs level — and, because a dist/ shard runs
// the same blocks through the same run_blocks() path, at any process
// partitioning too. tests/campaign/engine_test.cpp and tests/dist/ pin
// both properties.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/telemetry.hpp"
#include "workload/victim.hpp"

namespace pssp::campaign {

// Per-trial PRNG streams, split from the master seed. Exposed for tests:
// the derivation is part of the reproducibility contract.
struct trial_seeds {
    std::uint64_t server = 0;  // fork-server master (TLS canary C, ...)
    std::uint64_t attacker = 0;  // attack strategy nondeterminism
};
[[nodiscard]] trial_seeds seeds_for_trial(std::uint64_t master_seed,
                                          std::uint64_t trial_index);

class engine {
  public:
    explicit engine(campaign_spec spec);

    // Runs the whole campaign and reduces it. Victim builds (one compile +
    // link per (target, scheme)) happen on the calling thread; trials fan
    // out across spec.jobs workers. Throws if any trial threw. Drives
    // campaign::adaptive_allocator round by round through run_blocks — a
    // fixed campaign is its single round 0 over blocks_for(spec), an
    // adaptive one rounds 1..N — so the report is byte-identical to the
    // dist orchestrator's sharded run of the same spec at any --jobs level.
    [[nodiscard]] campaign_report run();

    // Runs exactly the given blocks (a subset of blocks_for(spec), any
    // order) and returns their mergeable partials, index-aligned with
    // `blocks`. Each block is reduced by one worker with sequential add()s
    // in trial order; trial seeds derive from the *global* trial index, so
    // which process or thread runs a block never shows in its partial.
    // This is the unit of work a dist/ shard executes. Victims are built
    // only for the cells the blocks actually touch.
    [[nodiscard]] std::vector<cell_partial> run_blocks(
        std::span<const block_ref> blocks);

    // Optional observer, called after every finished trial with
    // (completed, total). Invoked under a mutex from worker threads. In an
    // adaptive run `total` is the current round's trial count — the
    // campaign total is unknowable before the last round by construction.
    void set_progress(std::function<void(std::uint64_t, std::uint64_t)> fn) {
        progress_ = std::move(fn);
    }

    // Optional telemetry observer, called once per completed round from
    // run() (adaptive_allocator::summarize_round) — after each adaptive
    // round 1..N, or once for a fixed campaign's round 0. Strictly a side
    // channel: the summary is computed
    // from the same merged partials the report is, and nothing the
    // observer does can reach back into allocation or reduction.
    void set_round_observer(std::function<void(const obs::round_summary&)> fn) {
        round_observer_ = std::move(fn);
    }

  private:
    campaign_spec spec_;
    // One victim build per (target, scheme), built lazily by run_blocks for
    // the cells its blocks touch and cached across calls — an adaptive
    // round loop must not recompile the victims every round.
    std::vector<std::optional<workload::victim>> victims_;
    std::function<void(std::uint64_t, std::uint64_t)> progress_;
    std::function<void(const obs::round_summary&)> round_observer_;
};

}  // namespace pssp::campaign
