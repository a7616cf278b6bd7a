// Query engine over a loaded result store.
//
// Aggregation recomputes everything from merged integer tallies — rates
// and Wilson intervals come out of campaign::finalize_cell over the
// deduplicated, index-ordered merge of a cell's block rows, never from
// stored floats — so a partial (still-running) store answers with exact
// statistics over the trials ingested so far.
//
// The identity oracle: reconstruct_report() rebuilds the campaign report
// from the store alone — canonical block refs filtered to the executed
// (ingested) indices, partials in canonical ascending order, reduced by
// the same campaign::assemble_report every execution path ends in. Over a
// complete store this is byte-identical to the report the campaign
// printed, whatever the jobs/shard/fault/resume history was; CI `cmp`s
// the two, and --verify checks the stored completion entry's report hash.
//
// Cross-campaign joins align cells by (target, scheme, attack) across
// stores of different campaigns — the head-to-head scheme-comparison view.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "store/reader.hpp"

namespace pssp::store {

struct query_filter {
    // Empty = no constraint on that axis.
    std::vector<core::scheme_kind> schemes;
    std::vector<attack::attack_kind> attacks;
    std::vector<workload::target_kind> targets;
    // Round provenance window (inclusive; blocks carry the round that
    // produced them, 0 for fixed runs).
    std::uint64_t min_round = 0;
    std::uint64_t max_round = std::numeric_limits<std::uint64_t>::max();

    [[nodiscard]] bool matches(const campaign::cell_id& id) const;
};

// Adds a value parsed from CLI text ("SSP", "leak_replay", ...) to the
// right axis; throws std::invalid_argument on an unknown name.
void add_scheme(query_filter& filter, const std::string& name);
void add_attack(query_filter& filter, const std::string& name);
void add_target(query_filter& filter, const std::string& name);

struct cell_aggregate {
    std::uint64_t cell = 0;  // canonical cell index
    campaign::cell_id id;
    campaign::cell_report report;  // finalize_cell over the merged rows
    std::uint64_t block_rows = 0;
    std::uint64_t first_round = 0;
    std::uint64_t last_round = 0;
};

// Block rows deduplicated by canonical block index (lowest ingest seq
// wins), ascending index — the canonical merge order.
[[nodiscard]] std::vector<block_row> dedup_blocks(const store_data& data);

// Per-cell aggregates (canonical cell order) over rows passing `filter`.
// Cells with no matching rows are omitted.
[[nodiscard]] std::vector<cell_aggregate> aggregate_cells(
    const store_data& data, const query_filter& filter);

// The identity oracle (see header comment). Throws if any row does not
// belong to the manifest spec's canonical block space.
[[nodiscard]] campaign::campaign_report reconstruct_report(
    const store_data& data);

using campaign::cell_name;

// ---- render ----

[[nodiscard]] std::string aggregate_table(
    std::span<const cell_aggregate> cells);
[[nodiscard]] std::string aggregate_json(const store_data& data,
                                         std::span<const cell_aggregate> cells);

// Cross-store comparison: one row per (target, scheme, attack) present in
// any store, one detection/hijack column pair per store. `names` labels
// the columns (typically the directory names).
[[nodiscard]] std::string comparison_table(
    std::span<const store_data> stores, std::span<const std::string> names,
    const query_filter& filter);

}  // namespace pssp::store
