// Run-summary telemetry: one record per campaign round.
//
// The convergence view that makes adaptive allocation auditable: each
// summary records what a round issued (blocks, trials), where the
// campaign stands (cumulative trials, the widest remaining Wilson
// half-width and which cell owns it), and where the time went (round wall
// seconds; per-shard wall/user/sys for worker-process runs). A fixed run
// has a single round 0. adaptive_allocator::summarize_round builds it
// from the merged partials, so every execution mode reports the same
// rounds, timings, shard times and recovery totals aside
// (tests/campaign/telemetry_identity_test.cpp checks it). The result
// store keeps each summary as the `summary` body of a "k":"round" log
// entry (store/format.hpp); `tools_campaign_query DIR --follow` prints
// them as a run stores them.
//
// Deliberately NOT compiled out under PSSP_OBS=0: the store and the
// benchmarks read these summaries whatever the build. The side-channel
// invariant is unchanged either way — nothing here is read back into a
// trial or a report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pssp::obs {

struct shard_time {
    std::uint32_t shard = 0;
    double wall_seconds = 0.0;
    double user_seconds = 0.0;  // rusage ru_utime of the worker process
    double sys_seconds = 0.0;   // rusage ru_stime of the worker process
    // Network campaigns: which remote worker ran the shard. Emitted as a
    // "worker" field only when non-empty, so local runs' summary bytes
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
    // runs' summaries are byte-identical with and without supervision.
    std::uint64_t retries = 0;          // worker attempts beyond the first
    std::uint64_t requeued_blocks = 0;  // blocks re-dispatched by retries
    std::uint64_t timeouts = 0;         // deadline SIGKILLs
    // Network transport only (always 0 over local pipes):
    std::uint64_t evictions = 0;   // workers dropped mid-round
    std::uint64_t reconnects = 0;  // re-registrations accepted
    // True when the round was replayed from the store instead of run.
    bool resumed = false;
};

// The summary as one JSON object, no trailing newline — the body the
// store's round entries carry.
[[nodiscard]] std::string round_summary_json(const round_summary& round);

}  // namespace pssp::obs
