// The dist/ wire format: what crosses the pipe between the orchestrator
// and its campaign workers.
//
// Two message kinds, both deterministic JSON (util/json emitters):
//
//  * round job JSON (parent -> worker stdin): one round's work order for
//    one worker — the full campaign_spec (including the execution knobs
//    jobs/reuse_masters the orchestrator sets per shard; enum lists travel
//    as their to_string names), the round number (0 for a fixed campaign's
//    single round), the spec digest, and the explicit canonical blocks the
//    worker must run. The allocator decides the block set between rounds,
//    so workers never derive it themselves.
//
//  * partial report JSON (worker stdout -> parent): the worker's per-block
//    campaign::cell_partial states in manifest order, under a header naming
//    the shard, the round, and the spec digest. Doubles travel as hexfloat
//    strings — bit-exact round trip — because the parent re-merges them and
//    a single flipped mantissa bit would break the sharded-equals-single-
//    process byte-identity contract. The digest covers the outcome-relevant
//    spec fields so a worker that somehow ran a different campaign is
//    rejected, not merged.
//
// collect_block_partials() validates exactly-once coverage of one round's
// blocks; the allocator then merges them, and the report bottoms out in
// campaign::assemble_report — the same code path the in-process engine
// ends in.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "util/json.hpp"

namespace pssp::dist {

// v2: adaptive rounds — partial headers carry "round", specs carry the
// adaptive knobs, and the round-job message exists.
inline constexpr std::uint32_t wire_version = 2;

// ---- campaign_spec <-> JSON ----
// The spec as a bare JSON object body (no wrapper key) — shared by the
// round-job message, the spec digest, and the result store's manifest
// (store/format.hpp), so the encodings can never drift.
void append_spec_object(std::string& out, const campaign::campaign_spec& spec);
[[nodiscard]] campaign::campaign_spec spec_from_object(const util::json_value& s);

// FNV-1a 64 over the outcome-relevant spec fields (schemes, attacks,
// targets, trials, seed, budget, unknown bits, scheme options). The
// execution knobs jobs/reuse_masters are deliberately excluded: the
// orchestrator retunes them per shard, and they never move a report byte.
[[nodiscard]] std::uint64_t spec_digest(const campaign::campaign_spec& spec);

// ---- round job (spec + block manifest) <-> JSON ----
// One shard's work order for one round: run exactly these canonical
// blocks. The manifest travels with the spec in a single self-contained
// document so a worker needs nothing but its stdin.
struct round_manifest {
    std::uint64_t round = 0;   // 0 = fixed campaign, 1..N = adaptive round
    std::uint64_t digest = 0;  // spec_digest of the owning spec
    std::vector<campaign::block_ref> blocks;  // ascending block index
};

struct round_job {
    campaign::campaign_spec spec;
    round_manifest manifest;
};

[[nodiscard]] std::string round_job_to_json(const round_job& job);
[[nodiscard]] round_job round_job_from_json(std::string_view text);

// ---- partial report <-> JSON ----
struct partial_block {
    std::uint64_t index = 0;  // position in campaign::blocks_for(spec)
    std::uint64_t cell = 0;   // owning cell (redundant; validated on merge)
    campaign::cell_partial partial;
};

struct partial_report {
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 0;
    std::uint64_t round = 0;   // the manifest's round number
    std::uint64_t digest = 0;  // spec_digest of the spec the shard ran
    std::vector<partial_block> blocks;
};

[[nodiscard]] std::string partial_to_json(const partial_report& partial);
[[nodiscard]] partial_report partial_from_json(std::string_view text);

// One partial block as a bare JSON object (hexfloat-exact Welford state),
// and back. Shared by the partial message and the dist checkpoint log
// (dist/checkpoint.hpp) so the two serializations can never drift — a
// checkpointed block round-trips through exactly the bytes a live shard
// would have put on the pipe.
void append_partial_block(std::string& out, const partial_block& block);
[[nodiscard]] partial_block partial_block_from_json(const util::json_value& v);

// Validates that `partials` covers `blocks` (any subset of the canonical
// block space, ascending by index — one round) exactly once, with
// matching digests, cells, trial counts, and round numbers, and returns
// the cell partials index-aligned with `blocks`. Throws std::runtime_error
// naming the first offending block or shard — trials are never silently
// dropped or double-counted.
[[nodiscard]] std::vector<campaign::cell_partial> collect_block_partials(
    const campaign::campaign_spec& spec,
    std::span<const campaign::block_ref> blocks,
    std::span<const partial_report> partials, std::uint64_t expected_round);

}  // namespace pssp::dist
