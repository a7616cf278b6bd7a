// Crash-resumable campaign checkpoints.
//
// A checkpoint directory makes a sharded campaign resumable after the
// orchestrator itself dies (SIGKILL, OOM, power loss): merged block
// partials are persisted incrementally as they are validated, and a
// `--resume` run replays them instead of re-running the work. Layout:
//
//   <dir>/meta.json    written once at creation (tmp + rename, fsync):
//                      the checkpoint format version and the spec digest.
//                      Resume refuses a directory whose digest does not
//                      match the running spec — a checkpoint can never be
//                      silently merged into a different campaign.
//   <dir>/rounds.log   append-only JSONL, one entry per accepted round —
//                      the durable unit of progress for every run: a fixed
//                      campaign's single round 0, or each adaptive round
//                      1..N. Each line carries its own FNV-1a 64
//                      integrity hash over the entry body:
//
//                        {"ckpt":{"round":N,"blocks":[...]},"fnv":"<16hex>"}
//
//                      Blocks are the exact hexfloat wire encoding
//                      (dist::append_partial_block), so a replayed block
//                      is bit-identical to the one the shard emitted.
//   <dir>/state.json   small informational summary (tmp + rename), for
//                      humans and dashboards; never read on resume.
//
// Durability: each append writes one complete line with a trailing
// newline and fsyncs the log fd before reporting the round durable, so
// an orchestrator killed *between* rounds always leaves a clean log.
// Resume is strict on purpose: a truncated line, a structurally broken
// entry, or an entry failing its integrity hash (a single flipped
// hexfloat digit trips it) throws with the file and 1-based line number.
// Silent resume from corrupt state is impossible — a damaged checkpoint
// must be deleted explicitly, never quietly half-trusted. The orchestrator
// replays the entries through campaign::adaptive_allocator::replay_round,
// which rejects a round that is not the one this spec plans next (a log
// from another campaign, or a fixed run's log split into several round-0
// lines), again naming the log line.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/wire.hpp"

namespace pssp::dist {

inline constexpr std::uint32_t checkpoint_version = 1;

// One accepted round of replayed progress.
struct checkpoint_entry {
    std::uint64_t round = 0;
    std::vector<partial_block> blocks;
};

class checkpoint_log {
  public:
    // Starts a fresh checkpoint: creates <dir> if needed, refuses a
    // directory that already holds a checkpoint (resume must be explicit),
    // writes meta.json atomically, opens rounds.log for appending.
    [[nodiscard]] static checkpoint_log create(const std::string& dir,
                                               std::uint64_t digest);

    // Opens an existing checkpoint for resume: validates meta.json
    // (version + spec digest), replays rounds.log verifying every line's
    // structure and integrity hash, keeps the entries for the caller, and
    // reopens the log for appending. Throws std::runtime_error naming the
    // file and 1-based line of any corruption.
    [[nodiscard]] static checkpoint_log open_for_resume(const std::string& dir,
                                                        std::uint64_t digest);

    checkpoint_log(checkpoint_log&& other) noexcept;
    checkpoint_log& operator=(checkpoint_log&&) = delete;
    checkpoint_log(const checkpoint_log&) = delete;
    ~checkpoint_log();

    // Entries replayed by open_for_resume (empty for create()).
    [[nodiscard]] const std::vector<checkpoint_entry>& recorded() const noexcept {
        return entries_;
    }

    // Durably appends one entry: one hashed JSONL line + fsync, then a
    // tmp+rename state.json refresh. The blocks are persisted in the
    // given order (callers pass manifest order).
    void append(std::uint64_t round, std::span<const partial_block> blocks);

    [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

  private:
    checkpoint_log(std::string dir, std::uint64_t digest, int log_fd);

    void write_state() const;

    std::string dir_;
    std::uint64_t digest_ = 0;
    int log_fd_ = -1;
    std::uint64_t appended_rounds_ = 0;   // entries written (incl. replayed)
    std::uint64_t appended_blocks_ = 0;
    std::vector<checkpoint_entry> entries_;
};

}  // namespace pssp::dist
