// Sharded campaign driver: fans a campaign_spec out across worker
// processes (dist::run_sharded) and writes the merged report — which is
// byte-identical to the single-process run at every shard count; CI pins
// that by diffing --shards 1 against --shards 4 output.
//
// --scaling runs the same campaign at several shard counts, verifies all
// reports are byte-identical, and emits BENCH_shard.json: the shard-count
// scaling curve (wall seconds, trials/sec, speedup vs the first count).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <csignal>

#include "campaign/engine.hpp"
#include "dist/orchestrator.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "store/store.hpp"
#include "vm/dispatch.hpp"

#include <optional>

namespace {

using namespace pssp;

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--shards N] [--trials N] [--jobs N] [--seed S]\n"
                 "          [--budget Q] [--full] [--fresh-masters]\n"
                 "          [--adaptive] [--target H] [--round-blocks N]\n"
                 "          [--min-trials N]\n"
                 "          [--worker PATH] [--json PATH|-] [--table]\n"
                 "          [--scaling N1,N2,...] [--bench-json PATH|-]\n"
                 "  --shards N   worker processes (default 1; still fork/exec)\n"
                 "  --trials N   trials per campaign cell (default 112)\n"
                 "  --jobs N     total worker threads, split across shards\n"
                 "               (default 1; 0 = all cores)\n"
                 "  --seed S     master seed (default 2018)\n"
                 "  --budget Q   oracle-query budget per trial (default 4096)\n"
                 "  --full       full_spec(): every campaign-capable scheme\n"
                 "  --fresh-masters  disable the master snapshot-reuse pool\n"
                 "  --adaptive   CI-driven adaptive allocation: fixed rounds\n"
                 "               over the block space, cells stop when their\n"
                 "               Wilson CI half-width reaches the target;\n"
                 "               --trials becomes the per-cell budget. The\n"
                 "               merged report stays byte-identical at every\n"
                 "               shard count and jobs level.\n"
                 "  --target H   adaptive CI half-width target (default 0.05)\n"
                 "  --round-blocks N  blocks per adaptive round (default:\n"
                 "               one per cell)\n"
                 "  --min-trials N   per-cell trial floor before a cell may\n"
                 "               stop (default 64)\n"
                 "  --worker PATH    campaign worker binary (default: sibling\n"
                 "               tools_campaign_worker)\n"
                 "  --dispatch M VM dispatch engine: threaded (default) or\n"
                 "               switch; exported to workers via\n"
                 "               PSSP_VM_DISPATCH (merged report is identical\n"
                 "               either way)\n"
                 "  --json PATH  write the merged report JSON ('-' = stdout)\n"
                 "  --table      print the human-readable outcome matrix\n"
                 "  --scaling L  run at each shard count in the comma list,\n"
                 "               assert byte-identical reports, emit the\n"
                 "               scaling curve to --bench-json\n"
                 "  --bench-json PATH  BENCH_shard.json destination\n"
                 "  --telemetry PATH  per-round summary JSONL ('-' = stderr):\n"
                 "               blocks/trials issued, widest CI half-width,\n"
                 "               per-shard wall/user/sys times. Side channel\n"
                 "               only — never changes the report\n"
                 "  --trace-out PATH  Chrome trace_event JSON of the\n"
                 "               orchestrator's spans (rounds, worker\n"
                 "               lifetimes, wire encode/decode) — load in\n"
                 "               chrome://tracing or Perfetto\n"
                 "  --progress   live round progress on stderr (off by\n"
                 "               default; stderr only, stdout untouched)\n"
                 "  --max-attempts N  attempts per worker job before the run\n"
                 "               fails loudly (default 3; 1 = fail fast)\n"
                 "  --timeout S  per-attempt deadline in seconds; an overdue\n"
                 "               local worker is SIGKILLed, an overdue node\n"
                 "               evicted, and the job retried (default 0 =\n"
                 "               no deadline)\n"
                 "  --backoff S  base retry backoff in seconds, doubled per\n"
                 "               failed attempt (default 0.05)\n"
                 "  --checkpoint DIR  persist validated block partials to a\n"
                 "               crash-resumable checkpoint in DIR\n"
                 "  --resume     continue the checkpoint in --checkpoint DIR\n"
                 "               (spec digest must match); completed work is\n"
                 "               replayed, only missing work re-runs, and the\n"
                 "               final report is byte-identical\n"
                 "  --kill-after-round N  test hook: raise(SIGKILL) right\n"
                 "               after round N is checkpointed — simulates an\n"
                 "               orchestrator crash for --resume testing\n"
                 "  --store DIR  stream every accepted block partial and\n"
                 "               round summary into a columnar result store\n"
                 "               in DIR (query with tools_campaign_query;\n"
                 "               side channel only — report bytes identical\n"
                 "               store on or off). With --resume, continues\n"
                 "               an existing store. Not valid with --scaling\n"
                 "  --store-compact N  compact the store's log into column\n"
                 "               segments every N rounds (default 4; 0 =\n"
                 "               only at finalize)\n"
                 "  --metrics-out PATH  dump the obs metric registry as\n"
                 "               deterministic JSON at exit ('-' = stdout),\n"
                 "               including the recovery (dist.retries, ...)\n"
                 "               and network (dist.net.*) counters\n"
                 "  --workers N  network fleet mode: run rounds over a TCP\n"
                 "               coordinator that self-spawns N localhost\n"
                 "               tools_campaign_node daemons. The report is\n"
                 "               byte-identical to the local pipe transport\n"
                 "               at every worker count\n"
                 "  --listen [HOST:]PORT  network mode with an explicit bind\n"
                 "               address instead of a self-spawned fleet;\n"
                 "               start tools_campaign_node --connect HOST:PORT\n"
                 "               on the workers yourself (0 = ephemeral port,\n"
                 "               printed on stderr)\n"
                 "  --heartbeat S  worker heartbeat interval in seconds\n"
                 "               (default 0.25); a worker silent for 8\n"
                 "               intervals is evicted\n"
                 "  --register-wait S  seconds to wait for the first worker\n"
                 "               registration before failing (default 30)\n",
                 argv0);
}

std::vector<unsigned> parse_count_list(const char* text) {
    std::vector<unsigned> counts;
    const char* p = text;
    while (*p != '\0') {
        char* end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p || v == 0) return {};
        counts.push_back(static_cast<unsigned>(v));
        p = end;
        if (*p == ',') ++p;
        else if (*p != '\0') return {};
    }
    return counts;
}

bool write_text(const char* path, const std::string& text) {
    if (!std::strcmp(path, "-")) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::ofstream out{path, std::ios::binary};
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }
    out << text;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    campaign::campaign_spec spec = campaign::default_spec();
    spec.trials_per_cell = 112;
    dist::sharded_options options;
    const char* json_path = nullptr;
    const char* bench_json_path = nullptr;
    const char* trace_path = nullptr;
    std::vector<unsigned> scaling;
    bool table = false;
    bool progress = false;
    unsigned long long kill_after_round = 0;
    const char* store_dir = nullptr;
    unsigned long long store_compact = 4;
    const char* metrics_out_path = nullptr;
    unsigned net_workers = 0;
    const char* listen_spec = nullptr;
    double heartbeat_seconds = 0.0;
    double register_wait_seconds = 0.0;

    for (int i = 1; i < argc; ++i) {
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--shards")) {
            options.shards = static_cast<unsigned>(
                std::strtoul(next_value("--shards"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--trials")) {
            spec.trials_per_cell = std::strtoull(next_value("--trials"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--jobs")) {
            spec.jobs = static_cast<unsigned>(
                std::strtoul(next_value("--jobs"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--seed")) {
            spec.master_seed = std::strtoull(next_value("--seed"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--budget")) {
            spec.query_budget = std::strtoull(next_value("--budget"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--full")) {
            // Swap the axes, keep every knob set so far.
            auto full = campaign::full_spec();
            spec.schemes = std::move(full.schemes);
            spec.attacks = std::move(full.attacks);
            spec.targets = std::move(full.targets);
        } else if (!std::strcmp(argv[i], "--fresh-masters")) {
            spec.reuse_masters = false;
        } else if (!std::strcmp(argv[i], "--adaptive")) {
            spec.adaptive = true;
        } else if (!std::strcmp(argv[i], "--target")) {
            spec.target_ci_halfwidth =
                std::strtod(next_value("--target"), nullptr);
        } else if (!std::strcmp(argv[i], "--round-blocks")) {
            spec.round_blocks =
                std::strtoull(next_value("--round-blocks"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--min-trials")) {
            spec.min_trials_per_cell =
                std::strtoull(next_value("--min-trials"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--worker")) {
            options.worker_path = next_value("--worker");
        } else if (!std::strcmp(argv[i], "--dispatch")) {
            const char* value = next_value("--dispatch");
            const auto mode = vm::dispatch_from_string(value);
            if (!mode) {
                std::fprintf(stderr, "--dispatch must be threaded or switch\n");
                return 2;
            }
            vm::set_default_dispatch(*mode);
            // Exported before the orchestrator forks so every worker
            // process runs the same engine.
            ::setenv("PSSP_VM_DISPATCH", value, /*overwrite=*/1);
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = next_value("--json");
        } else if (!std::strcmp(argv[i], "--table")) {
            table = true;
        } else if (!std::strcmp(argv[i], "--scaling")) {
            scaling = parse_count_list(next_value("--scaling"));
            if (scaling.empty()) {
                std::fprintf(stderr, "--scaling needs a comma list like 1,2,4\n");
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--bench-json")) {
            bench_json_path = next_value("--bench-json");
        } else if (!std::strcmp(argv[i], "--telemetry")) {
            options.telemetry_path = next_value("--telemetry");
        } else if (!std::strcmp(argv[i], "--trace-out")) {
            trace_path = next_value("--trace-out");
        } else if (!std::strcmp(argv[i], "--progress")) {
            progress = true;
        } else if (!std::strcmp(argv[i], "--max-attempts")) {
            options.faults.max_attempts = static_cast<unsigned>(
                std::strtoul(next_value("--max-attempts"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--timeout")) {
            options.faults.timeout_seconds =
                std::strtod(next_value("--timeout"), nullptr);
        } else if (!std::strcmp(argv[i], "--backoff")) {
            options.faults.backoff_base_seconds =
                std::strtod(next_value("--backoff"), nullptr);
        } else if (!std::strcmp(argv[i], "--checkpoint")) {
            options.checkpoint_dir = next_value("--checkpoint");
        } else if (!std::strcmp(argv[i], "--resume")) {
            options.resume = true;
        } else if (!std::strcmp(argv[i], "--kill-after-round")) {
            kill_after_round =
                std::strtoull(next_value("--kill-after-round"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--store")) {
            store_dir = next_value("--store");
        } else if (!std::strcmp(argv[i], "--store-compact")) {
            store_compact =
                std::strtoull(next_value("--store-compact"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--metrics-out")) {
            metrics_out_path = next_value("--metrics-out");
        } else if (!std::strcmp(argv[i], "--workers")) {
            net_workers = static_cast<unsigned>(
                std::strtoul(next_value("--workers"), nullptr, 10));
            if (net_workers == 0) {
                std::fprintf(stderr, "--workers must be >= 1\n");
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--listen")) {
            listen_spec = next_value("--listen");
        } else if (!std::strcmp(argv[i], "--heartbeat")) {
            heartbeat_seconds = std::strtod(next_value("--heartbeat"), nullptr);
        } else if (!std::strcmp(argv[i], "--register-wait")) {
            register_wait_seconds =
                std::strtod(next_value("--register-wait"), nullptr);
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (options.shards == 0) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 2;
    }
    if (options.faults.max_attempts == 0) {
        std::fprintf(stderr, "--max-attempts must be >= 1\n");
        return 2;
    }
    if (options.resume && options.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--resume needs --checkpoint DIR\n");
        return 2;
    }
    if (kill_after_round != 0 && options.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--kill-after-round needs --checkpoint DIR\n");
        return 2;
    }
    if (store_dir != nullptr && !scaling.empty()) {
        // Scaling mode runs the same campaign repeatedly; a store records
        // one campaign execution.
        std::fprintf(stderr, "--store cannot be combined with --scaling\n");
        return 2;
    }
    if (net_workers != 0 && listen_spec != nullptr) {
        std::fprintf(stderr,
                     "--workers (self-spawned fleet) and --listen (external "
                     "workers) are mutually exclusive\n");
        return 2;
    }
    if (net_workers != 0 || listen_spec != nullptr) {
        if (!scaling.empty()) {
            std::fprintf(stderr, "--scaling is a local-transport benchmark; "
                                 "run network counts separately\n");
            return 2;
        }
        dist::net_options net;
        if (listen_spec != nullptr) {
            // [HOST:]PORT — split on the last ':' so a future bracketed v6
            // literal parses as one host token.
            const std::string text = listen_spec;
            const auto colon = text.rfind(':');
            const std::string port_text =
                colon == std::string::npos ? text : text.substr(colon + 1);
            if (colon != std::string::npos) net.listen_host = text.substr(0, colon);
            char* end = nullptr;
            const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
            if (end == port_text.c_str() || *end != '\0' || port > 65535) {
                std::fprintf(stderr, "--listen needs [HOST:]PORT, got \"%s\"\n",
                             listen_spec);
                return 2;
            }
            net.listen_port = static_cast<std::uint16_t>(port);
        }
        net.fleet_workers = net_workers;
        net.on_listen = [host = net.listen_host](std::uint16_t port) {
            std::fprintf(stderr, "coordinator listening on %s:%u\n",
                         host.c_str(), static_cast<unsigned>(port));
        };
        if (heartbeat_seconds > 0.0) net.heartbeat_seconds = heartbeat_seconds;
        if (register_wait_seconds > 0.0)
            net.register_wait_seconds = register_wait_seconds;
        options.net = std::move(net);
    }

    if (trace_path != nullptr) obs::enable_tracing(true);
    std::uint64_t blocks_done = 0;
    if (progress || kill_after_round != 0) {
        // Live progress, stderr only; stdout stays the report's. Built on
        // the same side-channel summaries --telemetry serializes. The
        // kill-after-round hook rides the same observer: summaries are
        // emitted after the round is checkpointed, so dying here leaves
        // exactly N rounds durable on disk.
        options.round_observer = [&blocks_done, progress,
                                  kill_after_round](const obs::round_summary& r) {
            blocks_done += r.blocks;
            if (progress)
                std::fprintf(
                    stderr,
                    "round %llu: %llu blocks (%llu so far), %llu trials "
                    "(%llu cumulative), widest CI half-width %.4f (%s)%s\n",
                    static_cast<unsigned long long>(r.round),
                    static_cast<unsigned long long>(r.blocks),
                    static_cast<unsigned long long>(blocks_done),
                    static_cast<unsigned long long>(r.trials),
                    static_cast<unsigned long long>(r.cumulative_trials),
                    r.max_halfwidth, r.widest_cell.c_str(),
                    r.resumed ? " [resumed]" : "");
            if (kill_after_round != 0 && !r.resumed &&
                r.round == kill_after_round) {
                std::fprintf(stderr,
                             "killing orchestrator after round %llu "
                             "(--kill-after-round)\n",
                             static_cast<unsigned long long>(r.round));
                std::fflush(nullptr);
                ::raise(SIGKILL);
            }
        };
    }
    // Written on every exit path below that returns from a completed run.
    auto dump_trace = [trace_path] {
        if (trace_path == nullptr) return true;
        if (!write_text(trace_path,
                        obs::chrome_trace_json("tools_campaign_shard")))
            return false;
        std::fprintf(stderr, "trace written to %s\n", trace_path);
        return true;
    };
    // The registry snapshot at exit; deterministic key order, so two runs
    // of the same campaign diff cleanly.
    auto dump_metrics = [metrics_out_path] {
        if (metrics_out_path == nullptr) return true;
        return write_text(metrics_out_path, obs::metrics_json() + "\n");
    };

    try {
        std::optional<store::store_writer> result_store;
        if (store_dir != nullptr) {
            store::writer_options wopts;
            wopts.compact_every_rounds = store_compact;
            result_store.emplace(store::store_writer::open(
                store_dir, spec, options.resume, wopts));
            store::store_writer* s = &*result_store;
            options.block_ingest =
                [s](std::uint64_t round,
                    std::span<const dist::partial_block> blocks) {
                    s->ingest_blocks(round, blocks);
                };
            // Store ingest runs before the progress/kill observer: a
            // --kill-after-round death still lands the round it just saw.
            options.round_observer =
                [s, prev = std::move(options.round_observer)](
                    const obs::round_summary& r) {
                    s->ingest_round(r);
                    if (prev) prev(r);
                };
        }
        if (!scaling.empty()) {
            // Scaling-curve mode: same campaign at each count, byte-identity
            // asserted across all of them.
            std::string reference;
            std::string bench;
            double base_seconds = 0.0;
            bench += "{\n  \"bench\": \"campaign_shard\",\n";
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "  \"trials\": %llu,\n  \"cells\": %llu,\n"
                          "  \"jobs\": %u,\n  \"counts\": [\n",
                          static_cast<unsigned long long>(spec.trial_count()),
                          static_cast<unsigned long long>(spec.cell_count()),
                          spec.jobs);
            bench += buf;
            for (std::size_t i = 0; i < scaling.size(); ++i) {
                dist::sharded_options run_options = options;
                run_options.shards = scaling[i];
                const auto start = std::chrono::steady_clock::now();
                const auto report = dist::run_sharded(spec, run_options);
                const double seconds = std::chrono::duration<double>(
                                           std::chrono::steady_clock::now() - start)
                                           .count();
                // Adaptive runs execute fewer trials than the budget; rate
                // the curve on what actually ran.
                const std::uint64_t executed = report.total_trials();
                const auto json = report.to_json();
                if (reference.empty()) {
                    reference = json;
                    base_seconds = seconds;
                } else if (json != reference) {
                    std::fprintf(stderr,
                                 "FAIL: report at --shards %u differs from "
                                 "--shards %u\n",
                                 scaling[i], scaling[0]);
                    return 1;
                }
                std::snprintf(
                    buf, sizeof buf,
                    "    {\"shards\": %u, \"wall_seconds\": %.3f, "
                    "\"trials_executed\": %llu, "
                    "\"trials_per_sec\": %.1f, \"speedup\": %.2f}%s\n",
                    scaling[i], seconds,
                    static_cast<unsigned long long>(executed),
                    static_cast<double>(executed) / seconds,
                    base_seconds / seconds, i + 1 < scaling.size() ? "," : "");
                bench += buf;
                std::fprintf(stderr, "--shards %u: %.3fs (report %s)\n",
                             scaling[i], seconds,
                             i == 0 ? "reference" : "identical");
            }
            bench += "  ]\n}\n";
            if (json_path != nullptr && !write_text(json_path, reference + "\n"))
                return 1;
            if (bench_json_path != nullptr && !write_text(bench_json_path, bench))
                return 1;
            std::fprintf(stderr, "all %zu shard counts byte-identical\n",
                         scaling.size());
            return dump_trace() && dump_metrics() ? 0 : 1;
        }

        const auto report = dist::run_sharded(spec, options);
        if (result_store.has_value()) {
            result_store->finalize(report, obs::metrics_json());
            std::fprintf(
                stderr,
                "store %s: %llu block(s) ingested, %llu dup(s) skipped, "
                "%llu segment(s)\n",
                store_dir,
                static_cast<unsigned long long>(
                    result_store->ingested_blocks()),
                static_cast<unsigned long long>(result_store->skipped_blocks()),
                static_cast<unsigned long long>(
                    result_store->segments_written()));
        }
        if (table) std::printf("%s\n", report.to_table().c_str());
        if (json_path != nullptr &&
            !write_text(json_path, report.to_json() + "\n"))
            return 1;
        return dump_trace() && dump_metrics() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
