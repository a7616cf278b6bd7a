// The result store's on-disk format: a streaming campaign observatory.
//
// A store directory is a campaign's durable log and its queryable result,
// for in-process (--shards 0) and sharded runs alike: the validated block
// partials the round loop accepts (and the round summaries / registry
// snapshots `src/obs/` produces) land here — one blocks entry per
// accepted round, the unit a resumed run replays — in a layout a reader
// can use *while the campaign is still running*. It holds exactly two files:
//
//   <dir>/store.json    the manifest, written once (tmp + rename) when the
//                       store is created and never rewritten: format
//                       version, spec digest, and the canonicalized wire
//                       spec object.
//   <dir>/ingest.log    append-only hashed JSONL, one entry per ingest:
//                       accepted block partials (hexfloat-exact Welford
//                       state), round summaries, a final obs::registry
//                       metrics snapshot, and a terminal completion entry
//                       carrying the final report's FNV — each line
//                       written complete + fsynced, each line carrying
//                       its own integrity hash:
//
//                         {"e":{"k":"blocks",...},"fnv":"<16hex>"}
//
// The ingest log is the store: every reader takes its rows from it, and
// whether the campaign finished is its completion entry. The log only
// ever loses a torn final line (cut on resume). A manifest carrying keys
// this decoder does not read (an older writer's compaction frontier,
// segment table or completion flag) still loads: its log holds every row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dist/wire.hpp"
#include "obs/telemetry.hpp"

namespace pssp::store {

inline constexpr std::uint32_t store_format_version = 1;

// One accepted block partial with its provenance: which ingest-log entry
// delivered it (seq) and which adaptive round produced it (0 = fixed).
struct block_row {
    std::uint64_t seq = 0;
    std::uint64_t round = 0;
    dist::partial_block block;
};

// One round summary as the log holds it.
struct round_row {
    std::uint64_t seq = 0;
    obs::round_summary summary;
};

// The terminal log entry: the campaign finished and its final report
// hashed to `report_fnv` — the self-check a reader's reconstructed
// report is compared against.
struct completion {
    std::uint64_t seq = 0;
    std::uint64_t rounds = 0;
    std::uint64_t report_fnv = 0;
};

struct manifest {
    std::uint32_t version = store_format_version;
    std::uint64_t spec_digest = 0;
    // Canonicalized spec (jobs = 1, reuse_masters = true — the digest's
    // own canonical form): execution knobs never reach the store.
    campaign::campaign_spec spec;
};

// ---- ingest log entries ----

enum class entry_kind : std::uint8_t { blocks, round, metrics, complete };

struct log_entry {
    entry_kind kind = entry_kind::blocks;
    std::uint64_t seq = 0;
    std::uint64_t round = 0;                  // kind == blocks
    std::vector<dist::partial_block> blocks;  // kind == blocks
    obs::round_summary summary;               // kind == round
    std::string metrics;                      // kind == metrics (verbatim JSON)
    completion done;                          // kind == complete

    [[nodiscard]] static log_entry make_blocks(
        std::uint64_t seq, std::uint64_t round,
        std::span<const dist::partial_block> blocks);
    [[nodiscard]] static log_entry make_round(std::uint64_t seq,
                                              const obs::round_summary& summary);
    [[nodiscard]] static log_entry make_metrics(std::uint64_t seq,
                                                std::string metrics_json);
    [[nodiscard]] static log_entry make_complete(std::uint64_t seq,
                                                 std::uint64_t rounds,
                                                 std::uint64_t report_fnv);
};

// One complete hashed log line, trailing newline included.
[[nodiscard]] std::string encode_log_line(const log_entry& entry);

// Strict decode: armor, integrity hash, and structure must all hold.
// Throws std::runtime_error naming `path` and the 1-based line number.
[[nodiscard]] log_entry decode_log_line(const std::string& path,
                                        std::size_t line_no,
                                        std::string_view line);

// Parses the round-summary JSON obs::round_summary_json emits (a round
// entry's `summary` body). Shared with the --follow tailer.
[[nodiscard]] obs::round_summary round_summary_from_json(
    const util::json_value& v);

// ---- manifest ----

[[nodiscard]] std::string encode_manifest(const manifest& m);
[[nodiscard]] manifest decode_manifest(const std::string& path,
                                       std::string_view text);

}  // namespace pssp::store
