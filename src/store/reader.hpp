// Opening a result store: verify, repair, serve.
//
// load_store() materializes a store directory into row vectors the query
// engine scans: column segments are read first (each verified against the
// manifest's FNV-1a hash), then the ingest-log tail past the compaction
// frontier. The ingest log is ground truth — a segment whose bytes do not
// hash to the manifest's value (a torn mid-write crash, a flipped bit) is
// rebuilt from the log rows covering its sequence range, and the rebuilt
// bytes must reproduce the manifest hash exactly: segment encoding is a
// pure function of its rows, so a repair either restores the original
// file bit-for-bit or proves the log itself is damaged and fails loudly.
//
// A torn *final* log line (no trailing newline — the one state a killed
// single-write(2) appender can leave) is dropped and reported; a torn or
// corrupt line anywhere else is a hard error, same policy as checkpoint
// resume.
//
// store_tailer is the `--follow` primitive: an incremental poll over
// ingest.log that yields each newly completed hashed line as a decoded
// entry. A poll may read a line the writer is still copying in; bytes
// after the last newline are carried to the next poll, so only complete
// lines are ever decoded.
#pragma once

#include <string>
#include <vector>

#include "store/format.hpp"

namespace pssp::store {

struct store_data {
    std::string directory;
    manifest meta;
    // Segment rows first (manifest order), then log-tail rows — ascending
    // ingest seq throughout. Blocks are NOT deduplicated here; the query
    // layer dedups by block index (lowest seq wins).
    std::vector<block_row> blocks;
    std::vector<round_row> rounds;
    std::string metrics;  // obs::registry snapshot; empty until finalized
    bool complete = false;
    completion done;
    std::uint64_t next_seq = 1;  // one past the highest seq on disk
    // What load had to tolerate/repair (exposed for tests and --verify).
    std::uint64_t repaired_segments = 0;
    bool dropped_torn_tail = false;
};

struct load_options {
    // Rewrite repaired segments back to disk (tmp + rename). Off = serve
    // the rebuilt rows without touching the directory (read-only media).
    bool repair = true;
};

[[nodiscard]] store_data load_store(const std::string& dir,
                                    const load_options& options = {});

class store_tailer {
  public:
    explicit store_tailer(std::string dir);

    // Decodes every complete line appended since the last poll, in order.
    // A store directory or log that does not exist yet yields nothing —
    // the campaign may not have started. Corrupt complete lines throw.
    [[nodiscard]] std::vector<log_entry> poll();

    [[nodiscard]] bool complete() const noexcept { return complete_; }

  private:
    std::string log_path_;
    std::uint64_t offset_ = 0;
    std::size_t line_no_ = 0;
    std::string pending_;  // partial line carried across polls
    bool complete_ = false;
};

}  // namespace pssp::store
