// Run-summary telemetry: one JSON line per campaign round.
//
// The convergence view that makes adaptive allocation auditable: each
// line records what a round issued (blocks, trials), where the campaign
// stands (cumulative trials, the widest remaining Wilson half-width and
// which cell owns it), and where the time went (round wall seconds;
// per-shard wall/user/sys for fork/exec runs). Fixed-allocation runs emit
// a single line with round 0. Produced by `--telemetry <file>` on
// tools_campaign_shard and bench_campaign_curves; both the in-process
// engine and the dist orchestrator feed the same struct, so the two
// execution paths are diffable line by line.
//
// Deliberately NOT compiled out under PSSP_OBS=0: this writer runs only
// when a caller passes --telemetry, costs nothing otherwise, and a
// stripped-telemetry build should still honor an explicit flag. The
// side-channel invariant is unchanged either way — nothing here is read
// back into a trial or a report.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pssp::obs {

struct shard_time {
    std::uint32_t shard = 0;
    double wall_seconds = 0.0;
    double user_seconds = 0.0;  // rusage ru_utime of the worker process
    double sys_seconds = 0.0;   // rusage ru_stime of the worker process
    // Network campaigns: which remote worker ran the shard. Emitted as a
    // "worker" field only when non-empty, so local runs' telemetry bytes
    // are unchanged.
    std::string worker;
};

struct round_summary {
    std::uint64_t round = 0;   // 1-based allocator round; 0 = fixed run
    std::uint64_t blocks = 0;  // blocks issued this round
    std::uint64_t trials = 0;  // trials executed this round
    std::uint64_t cumulative_trials = 0;
    // Widest per-cell Wilson half-width after this round and the
    // "target/scheme/attack" cell that owns it; 0 / "" for an empty run.
    double max_halfwidth = 0.0;
    std::string widest_cell;
    double wall_seconds = 0.0;
    std::vector<shard_time> shards;  // empty for in-process runs
    // Supervision recovery totals for the round (dist runs only). Emitted
    // as a "recovery" object only when any of them is nonzero, so clean
    // runs' telemetry is byte-identical with and without supervision.
    std::uint64_t retries = 0;          // worker attempts beyond the first
    std::uint64_t requeued_blocks = 0;  // blocks re-dispatched by retries
    std::uint64_t timeouts = 0;         // deadline SIGKILLs
    // Network transport only (always 0 over local pipes):
    std::uint64_t evictions = 0;   // workers dropped mid-round
    std::uint64_t reconnects = 0;  // re-registrations accepted
    // True when the round was replayed from a checkpoint instead of run.
    bool resumed = false;
};

// Appending JSONL writer; one line per round so a killed run keeps every
// completed round's record. Each line (including its trailing newline)
// goes down in a single write(2) on an unbuffered fd, so lines never
// interleave and every newline-terminated line on disk is complete. A
// concurrent reader — `campaign_query --follow`, `tail -f`, the store
// tailer — may still observe a line half-written: Linux does not make a
// buffered write that crosses a page boundary atomic with respect to
// read(2). Readers therefore consume only newline-terminated lines and
// carry any trailing partial line into their next poll
// (store::store_tailer does). Once the writer is closed the file is
// exactly the concatenation of its lines.
class telemetry_writer {
  public:
    telemetry_writer() = default;
    ~telemetry_writer();
    telemetry_writer(const telemetry_writer&) = delete;
    telemetry_writer& operator=(const telemetry_writer&) = delete;

    // Truncates and opens `path` ("-" = stderr). Returns false (with a
    // message on stderr) on failure; append() on a failed open is a no-op.
    bool open(const std::string& path);
    [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

    void append(const round_summary& round);

  private:
    int fd_ = -1;
    bool owned_ = false;  // false when writing to stderr
};

// The JSON line (no trailing newline); exposed for tests.
[[nodiscard]] std::string round_summary_json(const round_summary& round);

}  // namespace pssp::obs
