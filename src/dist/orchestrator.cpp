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
#include "dist/child.hpp"
#include "dist/supervisor.hpp"
#include "dist/wire.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "store/store.hpp"
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

// A run's first round (0 for a fixed run, 1 for an adaptive one) and
// attempt 1 keep the historical obs-postmortem-<shard>.json name; later
// rounds get a -round<R> suffix and retries an -attempt<N> suffix, so no
// failed attempt's evidence overwrites another's.
std::string postmortem_file_path(const sharded_options& options,
                                 std::uint32_t k, std::uint64_t round,
                                 unsigned attempt) {
    std::string name = "obs-postmortem-" + std::to_string(k);
    if (round > 1) name += "-round" + std::to_string(round);
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
    const auto path =
        postmortem_file_path(options, job.shard, job.manifest.round, rec.attempt);
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

// Hands one round's summary to the store (its round entry), then to the
// observer — so an observer that dies (--kill-after-round) only ever saw
// rounds that are durable.
void publish_round(store::store_writer* store, const sharded_options& options,
                   const obs::round_summary& summary) {
    if (store != nullptr) store->ingest_round(summary);
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
// aggregation, persistence, the merge) is channel-blind. Failed attempts
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

// Opens (resume) or creates the result store named by the options — the
// run's durable log; empty when persistence is off.
std::optional<store::store_writer> open_store(
    const campaign::campaign_spec& spec, const sharded_options& options) {
    if (options.checkpoint_dir.empty()) {
        if (options.resume)
            throw std::invalid_argument{
                "run_sharded: resume requires a store directory"};
        return std::nullopt;
    }
    return store::store_writer::open(options.checkpoint_dir, spec,
                                     options.resume);
}

// Feeds every round the store held at open back through the allocator
// instead of running it. Each blocks entry (one ingest seq, which is also its
// ingest.log line) is one accepted round; replay_round re-plans it and
// validates the entry against the plan, so a store from a different spec
// — or one with the wrong round structure — fails loudly, naming the line.
void replay_store(store::store_writer& store,
                  campaign::adaptive_allocator& allocator,
                  const sharded_options& options) {
    const auto rows = store.take_loaded_blocks();
    for (std::size_t first = 0, end = 0; first < rows.size(); first = end) {
        const std::uint64_t round = rows[first].round;
        std::vector<partial_block> entry;
        std::vector<campaign::block_ref> blocks;
        std::vector<campaign::cell_partial> partials;
        for (end = first; end < rows.size() && rows[end].seq == rows[first].seq;
             ++end) {
            const auto& b = rows[end].block;
            entry.push_back(b);
            blocks.push_back(
                campaign::block_ref{b.index, b.cell, 0, b.partial.trials});
            partials.push_back(b.partial);
        }
        try {
            allocator.replay_round(round, blocks, partials);
        } catch (const std::exception& e) {
            throw std::runtime_error{"store: " + store.directory() +
                                     "/ingest.log line " +
                                     std::to_string(rows[first].seq) + ": " +
                                     e.what()};
        }
        if (options.block_ingest) options.block_ingest(round, entry);
        auto summary = allocator.summarize_round(round, blocks);
        summary.resumed = true;
        publish_round(&store, options, summary);
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

    const auto digest = spec_digest(spec);
    campaign::adaptive_allocator allocator{spec};
    auto store = open_store(spec, options);

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
    // pattern, and across any kill/resume boundary: a round is stored
    // only after record_round() accepted it, and replaying the stored
    // rounds rebuilds the allocator state bit for bit.
    const auto shard_spec = shard_execution_spec(spec, options);
    if (store.has_value()) replay_store(*store, allocator, options);
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
        if (store.has_value() || options.block_ingest) {
            // The durable unit is one *accepted* round, persisted before
            // any observer runs. Blocks are reassembled into round order
            // from the round-robin job split; the hook gets the identical
            // list after the store's fsync'd append.
            const std::size_t count = outcome.partials.size();
            std::vector<partial_block> entry_blocks;
            entry_blocks.reserve(round.size());
            for (std::size_t p = 0; p < round.size(); ++p)
                entry_blocks.push_back(
                    outcome.partials[p % count].blocks[p / count]);
            if (store.has_value()) store->ingest_blocks(number, entry_blocks);
            if (options.block_ingest)
                options.block_ingest(number, entry_blocks);
        }
        if (store.has_value() || options.round_observer) {
            auto summary = allocator.summarize_round(number, round);
            summary.wall_seconds = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
            summary.shards = std::move(outcome.times);
            summary.retries = outcome.stats.retries;
            summary.requeued_blocks = outcome.stats.requeued_blocks;
            summary.timeouts = outcome.stats.timeouts;
            summary.evictions = outcome.stats.evictions;
            summary.reconnects = outcome.stats.reconnects;
            publish_round(store ? &*store : nullptr, options, summary);
        }
    }
    auto report = allocator.report();
    if (store.has_value()) store->finalize(report, obs::metrics_json());
    return report;
}

}  // namespace pssp::dist
