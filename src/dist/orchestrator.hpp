// Multi-process campaign fan-out.
//
// run_sharded() drives campaign::adaptive_allocator in the parent, round by
// round: a fixed campaign is one round numbered 0 holding every block of
// blocks_for(spec); an adaptive one runs rounds 1..N until every cell has
// converged or spent its budget. Each round's block list is split
// round-robin by position across the shards, and each non-empty slice
// becomes one job: an explicit block manifest (wire round-job JSON) sent
// as a lease frame to a `tools_campaign_worker`, which answers with a
// result frame holding the partial report. Over local pipes each job gets
// a fresh worker process that serves that one lease; over a fleet
// (options.net) each node relays its leases to one long-lived worker.
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
// Persistence/resume (options.checkpoint_dir): the result store
// (store/store.hpp) is the run's one durable log. The durable unit is one
// accepted round, fixed or adaptive: its blocks entry is appended and
// fsync'd, then the block_ingest hook runs, then the completed round
// summary is stored, then the round observer runs. A run whose
// *orchestrator* dies can be resumed (options.resume) and produce a
// byte-identical report, replaying the stored rounds (read once, by
// store_writer::open) through the allocator and running only the rounds
// after them; the store
// is finalized with the report before run_sharded returns. A torn final
// log line is dropped and its round re-runs. Resuming a complete store
// replays it, spawns no worker, appends nothing, and throws if the report
// does not hash to the stored completion entry. A fixed campaign has one
// round, so a fixed run killed mid-way re-runs all of its blocks.
//
// Link note: this file's definitions compile into pssp_store, which links
// pssp_dist, so the library graph stays acyclic.
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
    // Jobs per round (a round's block list is split this many ways). Over
    // local pipes each job is one worker process; 1 still goes through
    // fork/exec — that is the point of --shards 1 as a protocol check.
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

    // Handed one summary per round (a fixed run has the single round 0):
    // blocks/trials issued, the widest remaining Wilson half-width, and
    // per-shard wall/user/sys times — the same summaries
    // campaign::engine::set_round_observer gets, plus the shard times and
    // recovery totals. tools_campaign_shard writes its --telemetry JSONL
    // and renders --progress from this. Called from the orchestrating
    // thread between rounds, after the round is durable in the store.
    std::function<void(const obs::round_summary&)> round_observer;
    // Block hook: handed exactly the validated block partials the store
    // persists — once per accepted round (blocks reassembled into round
    // order, after the allocator accepted the round and after the store
    // append), and once per replayed round on resume. A consumer that
    // ingests into a store of its own dedups by block index, so the
    // at-least-once delivery this schedule implies is harmless. Called
    // from the orchestrating thread; a strict side channel — nothing
    // flows back into the merge or the report.
    std::function<void(std::uint64_t round, std::span<const partial_block>)>
        block_ingest;
    // Crash flight recorder (local pipes only): each worker process is
    // pointed at a per-shard flight file via the PSSP_OBS_FLIGHT environment variable
    // and checkpoints its span ring there as it runs. If a worker crashes,
    // exits non-zero, or emits a bad partial, the orchestrator dumps that
    // recording plus the worker's argv, wait status, round number and
    // block manifest to obs-postmortem-<shard>[-round<R>][-attempt<N>].json
    // (in postmortem_dir; the suffixes mark rounds after a run's first and
    // retries) before failing the run loudly. Flight files are removed on
    // success.
    bool flight_recorder = true;
    std::string postmortem_dir;  // empty = current directory

    // ---- Fault tolerance ----
    // Retry/timeout/backoff policy for every supervised worker (see
    // dist/supervisor.hpp). max_attempts = 1 restores the old fail-fast
    // behavior exactly.
    fault_policy faults;
    // Result-store directory (store/store.hpp), the run's durable log.
    // Empty = nothing persisted. With resume = false the directory must
    // not already hold a store; with resume = true it must, with a
    // matching spec digest, and completed rounds recorded there are
    // replayed instead of re-run — the resumed report is byte-identical
    // to an uninterrupted one.
    std::string checkpoint_dir;
    bool resume = false;

    // ---- Network transport ----
    // Engaged: run_jobs leases every attempt to tools_campaign_node
    // daemons registered with a dist::coordinator (remote channels)
    // instead of forking local workers; each node serves its leases on
    // one long-lived worker. The jobs, the classify/requeue
    // loop, the result store, and the merge are the same code either
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
