// Multi-process campaign fan-out.
//
// run_sharded() drives campaign::adaptive_allocator in the parent, round by
// round: a fixed campaign is one round numbered 0 holding every block of
// blocks_for(spec); an adaptive one runs rounds 1..N until every cell has
// converged or spent its budget. Each round's block list is split
// round-robin by position across the shards, and one
// `tools_campaign_worker` per non-empty slice runs it from an explicit
// block manifest (wire round-job JSON on stdin, partial report on stdout).
// The orchestrator validates exactly-once coverage of the round
// (wire::collect_block_partials), records the merged partials, and asks the
// allocator for the next round. Decisions are pure functions of merged
// partials, so the final report is byte-identical to the in-process engine
// at every shard count.
//
// Failure model: supervised, then loud. Every round runs under
// dist::run_jobs — a worker that crashes, times out, or emits a bad
// or wrong-blocks partial has its block manifest requeued with bounded
// retries and exponential backoff (options.faults), with a postmortem
// dumped per failed attempt. Requeueing cannot move a report byte:
// block partials are pure functions of (master_seed, block) and
// wire::collect_block_partials enforces exactly-once coverage, so
// at-least-once execution + dedup-by-block preserves identity. Only when a
// job exhausts its retry budget does the run fail, with a
// std::runtime_error naming every exhausted shard, its round, its last
// failure, its argv, and its block manifest — trials are never silently
// dropped.
//
// Checkpoint/resume (options.checkpoint_dir): the durable unit is one
// accepted round, fixed or adaptive, persisted through dist::checkpoint_log
// — so a run whose *orchestrator* dies can be resumed (options.resume) and
// produce a byte-identical report, replaying the logged rounds through the
// allocator and running only the rounds after them. A fixed campaign has
// one round, so a fixed run killed mid-way re-runs all of its blocks.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>

#include "campaign/campaign.hpp"
#include "dist/coordinator.hpp"
#include "dist/supervisor.hpp"
#include "obs/telemetry.hpp"

namespace pssp::dist {

struct sharded_options {
    // Number of worker processes. 1 still goes through fork/exec — that is
    // the point of --shards 1 as a protocol check.
    unsigned shards = 1;
    // Path to the worker binary; empty resolves default_worker_path().
    std::string worker_path;
    // Worker threads per shard; 0 derives resolve_jobs(spec.jobs)/shards
    // (at least 1), so "--jobs 8 --shards 4" runs 2 threads per process.
    unsigned jobs_per_shard = 0;

    // ---- Telemetry side channel ----
    // None of these can move a byte of the merged report
    // (tests/campaign/telemetry_identity_test.cpp pins that); they only
    // record what happened.

    // Run-summary JSONL destination ('-' = stderr): one line per round (a
    // fixed run has the single round 0), with blocks/trials
    // issued, the widest remaining Wilson half-width, and per-shard
    // wall/user/sys times. Empty = off.
    std::string telemetry_path;
    // In-process observer handed the same per-round summaries the JSONL
    // gets (tools_campaign_shard --progress renders its stderr line from
    // this). Called from the orchestrating thread between rounds.
    std::function<void(const obs::round_summary&)> round_observer;
    // Result-store ingest hook (src/store/): handed exactly the validated
    // block partials the checkpoint log persists — once per accepted round
    // (blocks reassembled into round order, after the allocator accepted
    // the round and after the checkpoint append), and once per replayed
    // round on resume. Ingest dedups by block index, so
    // the at-least-once delivery this schedule implies is harmless. Called
    // from the orchestrating thread; a strict side channel — nothing
    // flows back into the merge or the report.
    std::function<void(std::uint64_t round, std::span<const partial_block>)>
        block_ingest;
    // Crash flight recorder: each worker process is pointed at a
    // per-shard flight file via the PSSP_OBS_FLIGHT environment variable
    // and checkpoints its span ring there as it runs. If a worker crashes,
    // exits non-zero, or emits a bad partial, the orchestrator dumps that
    // recording plus the worker's argv, wait status, round number and
    // block manifest to obs-postmortem-<shard>.json (in postmortem_dir)
    // before failing the run loudly. Flight files are removed on success.
    bool flight_recorder = true;
    std::string postmortem_dir;  // empty = current directory

    // ---- Fault tolerance ----
    // Retry/timeout/backoff policy for every supervised worker (see
    // dist/supervisor.hpp). max_attempts = 1 restores the old fail-fast
    // behavior exactly.
    fault_policy faults;
    // Checkpoint directory (dist/checkpoint.hpp). Empty = no
    // checkpointing. With resume = false the directory must not already
    // hold a checkpoint; with resume = true it must, with a matching spec
    // digest, and completed work recorded there is replayed instead of
    // re-run — the resumed report is byte-identical to an uninterrupted
    // one.
    std::string checkpoint_dir;
    bool resume = false;

    // ---- Network transport ----
    // Engaged: run_jobs leases every attempt to tools_campaign_node
    // daemons registered with a dist::coordinator (remote channels)
    // instead of forking local workers. The jobs, the classify/requeue
    // loop, the checkpoint log, and the merge are the same code either
    // way, so the report is byte-identical to the local path at any
    // worker count or fault schedule. The fault_policy above (including
    // its deadline) governs remote attempts too.
    std::optional<net_options> net;
};

// The sibling `tools_campaign_worker` of the running executable —
// orchestrator and workers are built into the same binary directory.
[[nodiscard]] std::string default_worker_path();

[[nodiscard]] campaign::campaign_report run_sharded(
    const campaign::campaign_spec& spec, const sharded_options& options = {});

}  // namespace pssp::dist
