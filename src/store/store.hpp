// The store's write path: the orchestrator's one durable log.
//
// dist::run_sharded opens a store_writer in sharded_options::checkpoint_dir
// (at any shard count, 0 included) and hands it exactly the block partials
// each accepted round produced, one ingest_blocks per round, then the
// round's obs summary, then at the end the final registry snapshot and
// the completion entry. Each lands
// durably (complete hashed line + fsync per ingest) in <dir>/ingest.log;
// <dir>/store.json is written once, at creation, and never touched again.
// A resumed run takes the accepted rounds the writer read at open and
// replays them through the allocator. Nothing here changes a trial, a
// merge, or a report: with the store on or off, at any --jobs or shard
// count, the campaign report bytes are pinned identical
// (tests/store/store_test.cpp, tests/identity/store_identity.sh).
//
// Ingest is idempotent by construction: a block index already present is
// skipped, which is what makes resume replays and at-least-once retry
// patterns safe to feed straight through — block partials are pure
// functions of (master_seed, block), so the first ingested copy of a
// block is the only possible value.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "store/format.hpp"

namespace pssp::store {

class store_writer {
  public:
    // Opens a store directory for a campaign. Fresh run (`resume` false):
    // refuses a directory that already holds a store, else writes the
    // manifest (canonicalized spec + digest) and starts an empty log.
    // Resume: requires an existing store (throws naming `dir`, creating
    // nothing, when there is none) with a matching spec digest. One read
    // of the log recovers everything: a torn final line is cut off (and
    // fsync'd) before the first append, and already-ingested
    // blocks/rounds are remembered so replays dedup. A store whose log
    // holds a completion entry opens read-only: any ingest that would
    // append throws, and finalize only checks the report against it.
    [[nodiscard]] static store_writer open(const std::string& dir,
                                           const campaign::campaign_spec& spec,
                                           bool resume);

    store_writer(store_writer&& other) noexcept;
    store_writer& operator=(store_writer&&) = delete;
    store_writer(const store_writer&) = delete;
    ~store_writer();

    // Appends the round's accepted block partials (those not already
    // present), one durable hashed line. No-op if every block is a dup.
    void ingest_blocks(std::uint64_t round,
                       std::span<const dist::partial_block> blocks);

    // Appends one round summary; dedups by round number (a resume replay
    // re-announces rounds the store may already hold).
    void ingest_round(const obs::round_summary& summary);

    // The registry snapshot entry, then the terminal completion entry
    // carrying FNV-1a(report JSON) — the self-check queries verify
    // reconstruction against. On a store that was already complete it
    // appends nothing and throws if the report's FNV differs from the
    // stored one.
    void finalize(const campaign::campaign_report& report,
                  const std::string& metrics_json);

    // The block rows the log held when a resumed store was opened, in log
    // order (empty for a fresh store). Moves them out: the orchestrator
    // replays them through its allocator without reading the log again.
    [[nodiscard]] std::vector<block_row> take_loaded_blocks() noexcept {
        return std::exchange(loaded_blocks_, {});
    }

    [[nodiscard]] const std::string& directory() const noexcept { return dir_; }
    [[nodiscard]] std::uint64_t ingested_blocks() const noexcept {
        return ingested_blocks_;
    }
    [[nodiscard]] std::uint64_t skipped_blocks() const noexcept {
        return skipped_blocks_;
    }

  private:
    store_writer() = default;

    void append_entry(const log_entry& entry);

    std::string dir_;
    int log_fd_ = -1;
    std::uint64_t next_seq_ = 1;
    // The log's completion entry: set at open for a finished store (then
    // `report_fnv_` is the report it vouches for), or by finalize.
    bool complete_ = false;
    std::uint64_t report_fnv_ = 0;
    std::unordered_set<std::uint64_t> seen_blocks_;  // canonical block index
    std::unordered_set<std::uint64_t> seen_rounds_;  // one log entry each
    std::vector<block_row> loaded_blocks_;  // until take_loaded_blocks()
    std::uint64_t ingested_blocks_ = 0;
    std::uint64_t skipped_blocks_ = 0;
};

}  // namespace pssp::store
