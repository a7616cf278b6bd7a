// Campaign types: the declarative spec a caller hands the engine and the
// reduced report it gets back.
//
// A campaign is a full cross product — scheme kinds x attack strategies x
// workload targets — with `trials_per_cell` independent Monte-Carlo trials
// per cell. Each trial boots a fresh fork server (new master, new TLS
// canary C) and runs one attack to completion, so the per-cell reduction
// measures the paper's statistical claims as *distributions*: detection
// probability with a Wilson interval, guesses-to-compromise, residual
// leak value. One-shot runs (bench/security_effectiveness.cpp) show a
// sample; a campaign shows the curve.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attack/strategy.hpp"
#include "core/scheme.hpp"
#include "util/stats.hpp"
#include "workload/victim.hpp"

namespace pssp::campaign {

struct campaign_spec {
    std::vector<core::scheme_kind> schemes;
    std::vector<attack::attack_kind> attacks;
    std::vector<workload::target_kind> targets;
    std::uint64_t trials_per_cell = 100;
    std::uint64_t master_seed = 2018;
    // Host worker threads. 0 = one per hardware thread. Never part of the
    // report: a campaign is bit-reproducible at any jobs level.
    unsigned jobs = 1;
    // Reuse booted masters across trials via each victim's master_pool
    // (snapshot-restore reboot) instead of constructing a fork server per
    // trial. Purely an execution-speed knob: pooled and fresh oracles are
    // byte-identical for equal seeds, so — like jobs — this is never part
    // of the report.
    bool reuse_masters = true;
    std::uint64_t query_budget = 4096;  // oracle queries per trial
    unsigned brute_unknown_bits = 12;   // entropy-reduction harness setting
    core::scheme_options scheme_options{};

    // ---- Adaptive allocation (campaign/allocator.hpp) ----
    // When true, the campaign runs in fixed rounds over the canonical block
    // space: after each round every cell's Wilson CIs are recomputed from
    // its merged block partials, cells whose half-width has dropped below
    // `target_ci_halfwidth` stop, and the next round's blocks go to the
    // widest-CI cells first. trials_per_cell becomes the per-cell *budget*
    // (the hard cap); converged cells spend less of it. Unlike jobs and
    // reuse_masters these four knobs ARE outcome-relevant — they decide
    // which trials run — so they are part of the report, the wire spec,
    // and the spec digest. When false the campaign is a single round 0
    // holding every block, and the other three knobs are ignored.
    bool adaptive = false;
    // Stop a cell once BOTH its detection and hijack Wilson 95% CI
    // half-widths are at or below this. 0 never stops early (a Wilson
    // half-width on n >= 1 trials is strictly positive), which makes the
    // adaptive run degenerate to the fixed allocation.
    double target_ci_halfwidth = 0.05;
    // Reduction blocks handed out per round. 0 = one block per cell
    // (cell_count), the natural breadth-first default. Never derived from
    // jobs or shard count: the round schedule is part of the
    // reproducibility contract.
    std::uint64_t round_blocks = 0;
    // A cell may not stop before running at least this many trials (capped
    // by trials_per_cell), so a lucky first block cannot freeze a cell's
    // estimate at 3 trials.
    std::uint64_t min_trials_per_cell = 64;

    [[nodiscard]] std::uint64_t cell_count() const noexcept {
        return schemes.size() * attacks.size() * targets.size();
    }
    [[nodiscard]] std::uint64_t trial_count() const noexcept {
        return cell_count() * trials_per_cell;
    }
};

// The default acceptance matrix: {ssp, raf_ssp, p_ssp} x all attacks on the
// forking nginx analog.
[[nodiscard]] campaign_spec default_spec();

// The wide matrix: every campaign-capable scheme — default_spec's three
// plus dynaguard, dcr and p_ssp_owf — against {byte_by_byte, leak_replay}.
// brute_force is deliberately absent: its payload model needs DCR's
// per-victim link offset, which campaigns do not model (the engine rejects
// the pairing rather than reporting a fake 0.0 hijack rate).
[[nodiscard]] campaign_spec full_spec();

// Resolves a spec's `jobs` knob to a worker count: 0 means one per
// hardware thread, clamped to at least 1 (hardware_concurrency() may
// legitimately return 0). Every consumer of spec.jobs — the engine, the
// dist orchestrator's per-shard sizing — goes through this.
[[nodiscard]] unsigned resolve_jobs(unsigned requested) noexcept;

// One trial's reduced record (a flattened attack::attack_outcome).
struct trial_result {
    bool hijacked = false;
    bool detected = false;
    std::uint64_t oracle_queries = 0;
    std::uint64_t canary_detections = 0;
    std::uint64_t other_crashes = 0;
    unsigned leaked_bytes_valid = 0;
};

// Mergeable partial reduction over some of a cell's trials. This is the
// unit that crosses process boundaries in sharded campaigns: integer
// tallies sum, the Welford accumulators merge (Chan et al.), and nothing
// here is a rate — rates and Wilson intervals are recomputed from the
// merged integers in finalize_cell(), so they are exact whatever the
// partition was.
struct cell_partial {
    std::uint64_t trials = 0;
    std::uint64_t hijacks = 0;
    std::uint64_t detections = 0;
    std::uint64_t canary_detections = 0;
    std::uint64_t other_crashes = 0;
    util::welford_accumulator queries;
    util::welford_accumulator queries_to_compromise;
    util::welford_accumulator leaked_bytes_valid;

    void add(const trial_result& t);
    void merge(const cell_partial& other);
};

// The canonical reduction block: every cell's trials are grouped into
// consecutive runs of this many (the last block ragged), each reduced by
// sequential add()s in trial order, and a cell's statistics are ALWAYS the
// in-order merge of its block partials — in the single-process engine and
// in every sharded run alike. Identical float operations in an identical
// order is what makes a merged shard report byte-identical to the
// single-process report at any shard count.
inline constexpr std::uint64_t reduce_block_trials = 64;

// One cell of the cross product, in canonical (target-major, then scheme,
// then attack) order.
struct cell_id {
    workload::target_kind target{};
    core::scheme_kind scheme{};
    attack::attack_kind attack{};
};
[[nodiscard]] std::vector<cell_id> cells_for(const campaign_spec& spec);
// "target/scheme/attack", the cell naming telemetry and the store share.
[[nodiscard]] std::string cell_name(const cell_id& id);

// One canonical reduction block: `trials` consecutive trials of cell
// `cell` starting at global trial index `first_trial`. blocks_for() lists
// every block of the campaign in canonical order; `index` is the position
// in that list, and is what shard planners partition. Degenerate specs are
// well-defined, not UB: trials_per_cell == 0 or any empty axis yields an
// empty block list, and assemble_report over it is a valid zero-cell (or
// zero-trial) report.
struct block_ref {
    std::uint64_t index = 0;
    std::uint64_t cell = 0;
    std::uint64_t first_trial = 0;
    std::uint64_t trials = 0;
};
[[nodiscard]] std::vector<block_ref> blocks_for(const campaign_spec& spec);

// Per-cell statistics over trials_per_cell trials.
struct cell_report {
    core::scheme_kind scheme{};
    attack::attack_kind attack{};
    workload::target_kind target{};
    std::uint64_t trials = 0;
    std::uint64_t hijacks = 0;
    std::uint64_t detections = 0;
    double hijack_rate = 0.0;
    double detection_rate = 0.0;
    util::interval detection_ci{};        // Wilson 95%
    util::interval hijack_ci{};           // Wilson 95%
    util::welford_accumulator queries;    // oracle queries, all trials
    util::welford_accumulator queries_to_compromise;  // hijacked trials only
    util::welford_accumulator leaked_bytes_valid;     // residual leak value
    std::uint64_t canary_detections = 0;  // __stack_chk_fail deaths, summed
    std::uint64_t other_crashes = 0;      // segv / cf / fuel deaths, summed
};

struct campaign_report {
    campaign_spec spec;
    std::vector<cell_report> cells;  // target-major, then scheme, then attack

    // Trials actually executed. Equals spec.trial_count() for fixed
    // allocation; less when adaptive stopping saved budget — the quantity
    // the savings benchmark compares.
    [[nodiscard]] std::uint64_t total_trials() const noexcept {
        std::uint64_t total = 0;
        for (const auto& c : cells) total += c.trials;
        return total;
    }

    // Deterministic serialization: fixed key order, fixed float formatting,
    // no scheduling-dependent fields (spec.jobs is deliberately absent), so
    // byte-equality across --jobs levels is the reproducibility check.
    [[nodiscard]] std::string to_json() const;

    // Human-readable outcome matrix (text_table rendering).
    [[nodiscard]] std::string to_table() const;
};

// Rates + Wilson intervals from a cell's fully merged partial.
[[nodiscard]] cell_report finalize_cell(const cell_id& id,
                                        const cell_partial& merged);

// The canonical reduction: per-block partials (one per blocks_for(spec)
// entry, in that order) -> merged cells -> finalized report. The engine's
// run() and the dist orchestrator's shard merge both end here, which is
// why their outputs cannot differ.
[[nodiscard]] campaign_report assemble_report(const campaign_spec& spec,
                                              std::span<const block_ref> blocks,
                                              std::span<const cell_partial> partials);

// Reduces trial records (in trial-index order) into one cell report, via
// the same block structure as assemble_report. Exposed separately from the
// engine so tests can feed synthetic trials.
[[nodiscard]] cell_report reduce_cell(core::scheme_kind scheme,
                                      attack::attack_kind attack,
                                      workload::target_kind target,
                                      std::span<const trial_result> trials);

}  // namespace pssp::campaign
