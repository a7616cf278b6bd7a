#include "dist/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/allocator.hpp"
#include "dist/checkpoint.hpp"
#include "dist/child.hpp"
#include "dist/supervisor.hpp"
#include "dist/wire.hpp"
#include "obs/span.hpp"
#include "util/json.hpp"

namespace pssp::dist {

namespace {

// ---- Failure context: flight recordings, postmortems ----

std::string join_path(const std::string& dir, const std::string& name) {
    if (dir.empty()) return name;
    return dir.back() == '/' ? dir + name : dir + "/" + name;
}

std::string flight_file_path(const sharded_options& options, std::uint32_t k) {
    return join_path(options.postmortem_dir,
                     "obs-flight-" + std::to_string(::getpid()) + "-" +
                         std::to_string(k) + ".json");
}

// Attempt 1 keeps the historical obs-postmortem-<shard>.json name; retries
// get -attempt<N> suffixes so no attempt's evidence overwrites another's.
std::string postmortem_file_path(const sharded_options& options,
                                 std::uint32_t k, unsigned attempt) {
    std::string name = "obs-postmortem-" + std::to_string(k);
    if (attempt > 1) name += "-attempt" + std::to_string(attempt);
    return join_path(options.postmortem_dir, name + ".json");
}

void remove_flight_files(const std::vector<supervised_job>& jobs) {
    for (const auto& job : jobs)
        if (!job.flight_path.empty()) ::unlink(job.flight_path.c_str());
}

// The worker's full command line, for the failure message and postmortem.
std::string format_argv(const std::string& worker, const supervised_job& job) {
    std::string argv = worker;
    for (const auto& a : job.args) {
        argv += ' ';
        argv += a;
    }
    return argv;
}

std::string format_blocks(const supervised_job& job) {
    std::string out;
    for (const auto& b : job.manifest.blocks) {
        if (!out.empty()) out += ',';
        out += std::to_string(b.index);
    }
    return out;
}

// Dumps everything known about one failed attempt next to the report the
// attempt failed to advance: identity (shard, round, attempt, argv), the
// failure classification and decoded wait status, the block manifest the
// worker owned, and its last flight-recorder checkpoint (the newest spans
// its ring held when it last wrote — embedded verbatim, or null if the
// worker died before its first checkpoint).
void write_postmortem(const sharded_options& options, const std::string& worker,
                      const supervised_job& job, const attempt_record& rec) {
    const auto path = postmortem_file_path(options, job.shard, rec.attempt);
    std::string flight = "null";
    if (!job.flight_path.empty()) {
        std::ifstream in{job.flight_path, std::ios::binary};
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            // flight_checkpoint writes tmp+rename, so a file that exists is
            // a complete JSON document.
            std::string doc = buf.str();
            while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' '))
                doc.pop_back();
            if (!doc.empty()) flight = std::move(doc);
        }
    }
    std::string doc = "{\n  \"shard\": " + std::to_string(job.shard) +
                      ",\n  \"round\": " + std::to_string(job.manifest.round) +
                      ",\n  \"attempt\": " + std::to_string(rec.attempt) +
                      ",\n  \"failure_kind\": \"" + to_string(rec.kind) +
                      "\",\n  \"worker\": \"" + util::json_escape(worker) +
                      "\",\n  \"argv\": [";
    for (std::size_t i = 0; i < job.args.size(); ++i) {
        if (i != 0) doc += ", ";
        doc += "\"" + util::json_escape(job.args[i]) + "\"";
    }
    doc += "],\n  \"error\": \"" + util::json_escape(rec.why) +
           "\",\n  \"raw_wait_status\": " + std::to_string(rec.wait_status) +
           ",\n  \"blocks\": [";
    for (std::size_t i = 0; i < job.manifest.blocks.size(); ++i) {
        if (i != 0) doc += ", ";
        doc += std::to_string(job.manifest.blocks[i].index);
    }
    doc += "],\n  \"flight\": " + flight + "\n}\n";

    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    if (!out) {
        std::fprintf(stderr, "dist: cannot write postmortem %s\n", path.c_str());
        return;
    }
    out << doc;
    std::fprintf(stderr, "dist: wrote %s\n", path.c_str());
}

// Completes a round summary with what every round reports — wall time,
// per-shard times, recovery totals — and hands it to the telemetry writer
// and the observer.
void emit_round(const sharded_options& options, obs::telemetry_writer* writer,
                obs::round_summary summary, double wall,
                std::vector<obs::shard_time> times,
                const supervise_stats& stats) {
    summary.wall_seconds = wall;
    summary.shards = std::move(times);
    summary.retries = stats.retries;
    summary.requeued_blocks = stats.requeued_blocks;
    summary.timeouts = stats.timeouts;
    summary.evictions = stats.evictions;
    summary.reconnects = stats.reconnects;
    if (writer != nullptr) writer->append(summary);
    if (options.round_observer) options.round_observer(summary);
}

campaign::campaign_spec shard_execution_spec(
    const campaign::campaign_spec& spec, const sharded_options& options) {
    // Per-shard execution knobs: split the requested parallelism across
    // the shard processes (each then also caps its master pools to that).
    campaign::campaign_spec shard_spec = spec;
    shard_spec.jobs =
        options.jobs_per_shard != 0
            ? options.jobs_per_shard
            : std::max(1u, campaign::resolve_jobs(spec.jobs) / options.shards);
    return shard_spec;
}

// One supervised manifest job per shard for one round: the round's block
// list split round-robin by position, every worker told exactly which
// canonical blocks it owns. A shard with no blocks is not spawned (late
// adaptive rounds, and small fixed campaigns, routinely have fewer blocks
// than shards), so every job is requeueable as a pure block manifest.
std::vector<supervised_job> build_round_jobs(
    const sharded_options& options, bool flight_recorder,
    const campaign::campaign_spec& shard_spec,
    std::uint64_t digest, std::uint64_t round_number,
    std::span<const campaign::block_ref> blocks) {
    const auto count = static_cast<std::uint32_t>(
        std::min<std::size_t>(options.shards, blocks.size()));
    std::vector<supervised_job> jobs(count);
    for (std::uint32_t k = 0; k < count; ++k) {
        round_job rj;
        rj.spec = shard_spec;
        rj.manifest.round = round_number;
        rj.manifest.digest = digest;
        for (std::size_t p = k; p < blocks.size(); p += count)
            rj.manifest.blocks.push_back(blocks[p]);
        jobs[k].args = {"--shard", std::to_string(k), "--shards",
                        std::to_string(count)};
        jobs[k].input = round_job_to_json(rj);
        jobs[k].manifest = std::move(rj.manifest);
        jobs[k].shard = k;
        jobs[k].shard_count = count;
        if (flight_recorder)
            jobs[k].flight_path = flight_file_path(options, k);
    }
    return jobs;
}

struct round_outcome {
    std::vector<partial_report> partials;  // one per spawned job
    std::vector<obs::shard_time> times;
    supervise_stats stats;
};

// Runs one round's jobs under run_jobs — on local channels, or on the
// fleet's nodes when `fleet` is non-null; everything downstream (failure
// aggregation, checkpointing, the merge) is channel-blind. Failed attempts
// get postmortems and retries; a job that exhausts its budget fails the
// run with an aggregated error naming every exhausted shard's round, last
// failure, argv, and block manifest.
round_outcome execute_round(
    const sharded_options& options, coordinator* fleet,
    const std::string& worker, const campaign::campaign_spec& shard_spec,
    std::uint64_t digest, std::uint64_t round_number,
    std::span<const campaign::block_ref> blocks) {
    // Flight recording rides the local channel's environment plumbing;
    // remote attempts are postmortem'd from their wait status and output.
    const auto jobs = build_round_jobs(
        options, options.flight_recorder && fleet == nullptr, shard_spec,
        digest, round_number, blocks);
    supervise_hooks hooks;
    hooks.on_attempt_failure = [&options, &worker](const supervised_job& job,
                                                   const attempt_record& rec) {
        write_postmortem(options, worker, job, rec);
    };
    round_outcome outcome;
    std::vector<job_result> results;
    try {
        results = run_jobs(worker, jobs, options.faults, hooks, outcome.stats,
                           fleet);
    } catch (...) {
        remove_flight_files(jobs);
        throw;
    }
    std::string failure;
    for (std::size_t k = 0; k < results.size(); ++k) {
        if (results[k].ok) continue;
        const auto& last = results[k].failures.back();
        if (!failure.empty()) failure += "; ";
        failure += "shard " + std::to_string(jobs[k].shard) + " (round " +
                   std::to_string(round_number) + "): " + last.why + " after " +
                   std::to_string(results[k].attempts) + " attempt(s) [argv: " +
                   format_argv(worker, jobs[k]) +
                   "] [blocks: " + format_blocks(jobs[k]) + "]";
    }
    remove_flight_files(jobs);
    if (!failure.empty()) throw std::runtime_error{"run_sharded: " + failure};
    outcome.partials.reserve(results.size());
    outcome.times.reserve(results.size());
    for (std::size_t k = 0; k < results.size(); ++k) {
        outcome.partials.push_back(std::move(results[k].partial));
        outcome.times.push_back(obs::shard_time{
            jobs[k].shard, results[k].wall_seconds, results[k].user_seconds,
            results[k].sys_seconds, std::move(results[k].worker_name)});
    }
    return outcome;
}

// Opens (resume) or creates the checkpoint named by the options; null
// when checkpointing is off.
std::optional<checkpoint_log> open_checkpoint(const sharded_options& options,
                                              std::uint64_t digest) {
    if (options.checkpoint_dir.empty()) {
        if (options.resume)
            throw std::invalid_argument{
                "run_sharded: resume requires a checkpoint directory"};
        return std::nullopt;
    }
    if (options.resume)
        return checkpoint_log::open_for_resume(options.checkpoint_dir, digest);
    return checkpoint_log::create(options.checkpoint_dir, digest);
}

// Feeds every checkpointed round back through the allocator instead of
// running it. replay_round re-plans each round and validates the entry
// against the plan, so a log from a different spec — or one with the
// wrong round structure — fails loudly, naming the log line.
void replay_checkpoint(const checkpoint_log& ckpt,
                       campaign::adaptive_allocator& allocator,
                       const sharded_options& options,
                       obs::telemetry_writer* telemetry) {
    const auto& entries = ckpt.recorded();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& entry = entries[i];
        std::vector<campaign::block_ref> blocks;
        std::vector<campaign::cell_partial> partials;
        blocks.reserve(entry.blocks.size());
        partials.reserve(entry.blocks.size());
        for (const auto& b : entry.blocks) {
            blocks.push_back(
                campaign::block_ref{b.index, b.cell, 0, b.partial.trials});
            partials.push_back(b.partial);
        }
        try {
            allocator.replay_round(entry.round, blocks, partials);
        } catch (const std::exception& e) {
            throw std::runtime_error{"checkpoint: " + ckpt.directory() +
                                     "/rounds.log line " +
                                     std::to_string(i + 1) + ": " + e.what()};
        }
        if (options.block_ingest)
            options.block_ingest(entry.round, entry.blocks);
        if (telemetry != nullptr || options.round_observer) {
            auto summary = allocator.summarize_round(entry.round, blocks);
            summary.resumed = true;
            emit_round(options, telemetry, std::move(summary), 0.0, {}, {});
        }
    }
}

}  // namespace

std::string default_worker_path() {
    return sibling_binary("tools_campaign_worker");
}

campaign::campaign_report run_sharded(const campaign::campaign_spec& spec,
                                      const sharded_options& options) {
    if (options.shards == 0)
        throw std::invalid_argument{"run_sharded: shards must be >= 1"};
    const std::string worker = options.worker_path.empty()
                                   ? default_worker_path()
                                   : options.worker_path;
    obs::telemetry_writer writer;
    obs::telemetry_writer* telemetry = nullptr;
    if (!options.telemetry_path.empty() && writer.open(options.telemetry_path))
        telemetry = &writer;

    const auto digest = spec_digest(spec);
    campaign::adaptive_allocator allocator{spec};
    auto ckpt = open_checkpoint(options, digest);

    // With options.net every round's attempts lease to the coordinator's
    // nodes, which stay registered across rounds; otherwise they run on
    // local pipes and no socket is ever bound.
    std::unique_ptr<coordinator> fleet;
    if (options.net.has_value()) {
        net_options net = *options.net;
        if (net.worker_path.empty()) net.worker_path = worker;
        fleet = std::make_unique<coordinator>(net, digest);
    }

    // The round loop. The allocator runs in the parent — one all-blocks
    // round 0 for a fixed campaign, rounds 1..N for an adaptive one — and
    // each round's block list becomes supervised manifest jobs. Allocation
    // decisions consume only merged partials, and block partials are pure
    // functions of (master_seed, block), so this reproduces
    // engine{spec}.run() byte for byte at any shard count, any retry
    // pattern, and across any kill/resume boundary: a round is checkpointed
    // only after record_round() accepted it, and replaying the checkpointed
    // rounds rebuilds the allocator state bit for bit.
    const auto shard_spec = shard_execution_spec(spec, options);
    if (ckpt.has_value())
        replay_checkpoint(*ckpt, allocator, options, telemetry);
    for (;;) {
        const auto round = allocator.plan_round();
        if (round.empty()) break;
        const std::uint64_t number = allocator.round_number();
        obs::span sp{"campaign.round", "dist",
                     static_cast<std::int64_t>(number)};
        const auto start = std::chrono::steady_clock::now();
        auto outcome = execute_round(options, fleet.get(), worker, shard_spec,
                                     digest, number, round);
        allocator.record_round(
            round,
            collect_block_partials(spec, round, outcome.partials, number));
        if (ckpt.has_value() || options.block_ingest) {
            // The durable unit is one *accepted* round, persisted before
            // any observer runs — so a --kill-after-round harness (or a
            // real death between rounds) always leaves the round it just
            // saw on disk. Blocks are reassembled into round order from
            // the round-robin job split. The store ingests the identical
            // round-ordered list, after the checkpoint append.
            const std::size_t count = outcome.partials.size();
            std::vector<partial_block> entry_blocks;
            entry_blocks.reserve(round.size());
            for (std::size_t p = 0; p < round.size(); ++p)
                entry_blocks.push_back(
                    outcome.partials[p % count].blocks[p / count]);
            if (ckpt.has_value()) ckpt->append(number, entry_blocks);
            if (options.block_ingest)
                options.block_ingest(number, entry_blocks);
        }
        if (telemetry != nullptr || options.round_observer)
            emit_round(options, telemetry,
                       allocator.summarize_round(number, round),
                       std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count(),
                       std::move(outcome.times), outcome.stats);
    }
    return allocator.report();
}

}  // namespace pssp::dist
