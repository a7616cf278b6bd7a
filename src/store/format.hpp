// The result store's on-disk format: a streaming campaign observatory.
//
// A store directory is a sharded campaign's durable log and its
// queryable result: the validated block partials the orchestrator
// accepts (and the round summaries / registry snapshots `src/obs/`
// produces) land here — one blocks entry per accepted round, the unit a
// resumed run replays — in a layout a reader can use *while the campaign
// is still running*:
//
//   <dir>/store.json    atomic manifest (tmp + rename): format version,
//                       spec digest, the canonicalized wire spec object,
//                       the compaction frontier, the completion flag, and
//                       the column-segment table with per-segment FNV-1a
//                       hashes.
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
//   <dir>/seg-*.json    periodically compacted column segments: the log
//                       rows up to the compaction frontier re-laid as
//                       column arrays (integer tallies, hexfloat Welford
//                       columns, round/shard provenance), so aggregation
//                       scans columns instead of re-parsing JSONL.
//
// The ingest log is ground truth and only ever loses a torn final line
// (cut on resume); segments are a read-optimized projection of a log
// prefix. Segment encoding is a pure function of its rows, so a torn
// segment (hash mismatch against the manifest after a mid-write crash) is
// rebuilt from the log on the next open and must re-hash to the
// manifest's value — corruption is repaired exactly or fails loudly,
// never papered over.
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

// One round summary as ingested. The summary is the *log-decoded* form
// (see store_writer::ingest_round): its doubles round-tripped through
// obs::round_summary_json once, so re-encoding a segment from replayed
// log rows reproduces the original segment bytes bit for bit.
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

struct segment_info {
    std::string file;  // relative to the store directory
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t block_rows = 0;
    std::uint64_t round_rows = 0;
    std::uint64_t fnv = 0;  // FNV-1a 64 over the entire segment file
};

struct manifest {
    std::uint32_t version = store_format_version;
    std::uint64_t spec_digest = 0;
    // Canonicalized spec (jobs = 1, reuse_masters = true — the digest's
    // own canonical form): execution knobs never reach the store.
    campaign::campaign_spec spec;
    std::uint64_t compacted_seq = 0;  // rows with seq <= this are segmented
    bool complete = false;
    std::vector<segment_info> segments;
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

// Parses the round-summary JSON obs::round_summary_json emits (also the
// shape --telemetry lines carry). Shared with the --follow tailer.
[[nodiscard]] obs::round_summary round_summary_from_json(
    const util::json_value& v);

// ---- manifest ----

[[nodiscard]] std::string encode_manifest(const manifest& m);
[[nodiscard]] manifest decode_manifest(const std::string& path,
                                       std::string_view text);

// ---- column segments ----

// Pure function of its rows (blocks then rounds, each ascending seq):
// identical rows always produce identical bytes, which is what makes
// rebuild-from-log able to reproduce the manifest's hash.
[[nodiscard]] std::string encode_segment(std::span<const block_row> blocks,
                                         std::span<const round_row> rounds);
void decode_segment(const std::string& path, std::string_view text,
                    std::vector<block_row>& blocks,
                    std::vector<round_row>& rounds);

// "seg-<first_seq, 12 digits>.json" — ranges are disjoint, so the first
// sequence number is a unique, sortable name.
[[nodiscard]] std::string segment_file_name(std::uint64_t first_seq);

}  // namespace pssp::store
