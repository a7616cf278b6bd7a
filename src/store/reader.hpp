// Opening a result store: one pass over its log.
//
// load_store() materializes a store directory into row vectors the query
// engine scans: it decodes store.json, then streams ingest.log once —
// every line checked against its own integrity hash — into block rows,
// round rows, the metrics snapshot and the completion entry. The log is
// the store; there is nothing else to read, verify or repair.
//
// A torn *final* log line (no trailing newline — the one state a killed
// single-write(2) appender can leave) is dropped and reported, along
// with where the complete lines end so a resuming writer can cut it; the
// resumed run re-runs its round, which is safe because a round is only
// observed after its lines are fsync'd. A torn or corrupt line anywhere
// else is a hard error naming the file and line.
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
    // Rows in log order — ascending ingest seq. Blocks are NOT
    // deduplicated here; the query layer dedups by block index (lowest
    // seq wins).
    std::vector<block_row> blocks;
    std::vector<round_row> rounds;
    std::string metrics;  // obs::registry snapshot; empty until finalized
    bool complete = false;
    completion done;
    std::uint64_t next_seq = 1;  // one past the highest seq on disk
    // A torn final line was dropped; the complete lines end at log_bytes.
    bool dropped_torn_tail = false;
    std::uint64_t log_bytes = 0;
};

[[nodiscard]] store_data load_store(const std::string& dir);

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
