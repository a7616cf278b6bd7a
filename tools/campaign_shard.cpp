// The campaign front end: parses the campaign flags, runs the campaign
// and writes its report. --shards 0 runs campaign::engine in this
// process; --shards N >= 1 fans the rounds out across worker processes
// (dist::run_sharded) or, with --workers/--listen, a TCP fleet. The report
// is byte-identical in every mode, at every shard count and jobs level;
// CI pins that by diffing --shards 0 against --shards 1, 2, 4 and 8.
//
// Both modes feed one round observer: --telemetry, --progress and
// --kill-after-round all hang off the per-round summaries it receives.
// --store names the orchestrator's durable log (sharded_options::
// checkpoint_dir), which run_sharded owns end to end. Flags only the
// orchestrator honours are refused with --shards 0.

#include <algorithm>
#include <array>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "campaign/engine.hpp"
#include "dist/orchestrator.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "util/cli.hpp"
#include "vm/dispatch.hpp"

namespace {

using namespace pssp;

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--shards N] [--trials N] [--jobs N] [--seed S]\n"
                 "          [--budget Q] [--full] [--fresh-masters]\n"
                 "          [--adaptive] [--target H] [--round-blocks N]\n"
                 "          [--min-trials N]\n"
                 "          [--worker PATH] [--json PATH|-] [--table]\n"
                 "  --shards N   worker processes (default 1; 1 still\n"
                 "               fork/execs; 0 = run in this process)\n"
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
                 "               report stays byte-identical at every\n"
                 "               shard count and jobs level.\n"
                 "  --target H   adaptive CI half-width target (default 0.05)\n"
                 "  --round-blocks N  blocks per adaptive round (default:\n"
                 "               one per cell)\n"
                 "  --min-trials N   per-cell trial floor before a cell may\n"
                 "               stop (default 64)\n"
                 "  --dispatch M VM dispatch engine: threaded (default) or\n"
                 "               switch; exported to workers via\n"
                 "               PSSP_VM_DISPATCH (the report is identical\n"
                 "               either way)\n"
                 "  --json PATH  write the report JSON ('-' = stdout)\n"
                 "  --table      print the human-readable outcome matrix\n"
                 "  --telemetry PATH  per-round summary JSONL ('-' = stderr):\n"
                 "               blocks/trials issued, widest CI half-width,\n"
                 "               per-shard wall/user/sys times. Side channel\n"
                 "               only — never changes the report\n"
                 "  --trace-out PATH  Chrome trace_event JSON of this run's\n"
                 "               spans (rounds, trial blocks, worker\n"
                 "               lifetimes, wire encode/decode) — load in\n"
                 "               chrome://tracing or Perfetto\n"
                 "  --progress   live round progress on stderr, plus a live\n"
                 "               trial counter with --shards 0 (stdout\n"
                 "               untouched)\n"
                 "  --metrics-out PATH  dump the obs metric registry as\n"
                 "               deterministic JSON at exit ('-' = stdout),\n"
                 "               including the recovery (dist.retries, ...)\n"
                 "               and network (dist.net.*) counters\n"
                 "orchestrator only (refused with --shards 0):\n"
                 "  --worker PATH    campaign worker binary (default: sibling\n"
                 "               tools_campaign_worker)\n"
                 "  --max-attempts N  attempts per worker job before the run\n"
                 "               fails loudly (default 3; 1 = fail fast)\n"
                 "  --timeout S  per-attempt deadline in seconds; an overdue\n"
                 "               local worker is SIGKILLed, an overdue node\n"
                 "               evicted, and the job retried (default 0 =\n"
                 "               no deadline)\n"
                 "  --backoff S  base retry backoff in seconds, doubled per\n"
                 "               failed attempt (default 0.05)\n"
                 "  --store DIR  persist every accepted round (block partials\n"
                 "               and summary, fsync'd) to a crash-resumable\n"
                 "               result store in DIR (query with\n"
                 "               tools_campaign_query; report bytes\n"
                 "               identical store on or off)\n"
                 "  --resume     continue the store in --store DIR (spec\n"
                 "               digest must match); completed rounds are\n"
                 "               replayed, only missing work re-runs, and the\n"
                 "               final report is byte-identical\n"
                 "  --kill-after-round N  test hook: raise(SIGKILL) right\n"
                 "               after round N is stored — simulates an\n"
                 "               orchestrator crash for --resume testing\n"
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

// The flags only dist::run_sharded acts on.
constexpr std::array<std::string_view, 11> kOrchestratorFlags{
    "--worker", "--max-attempts", "--timeout", "--backoff", "--resume",
    "--kill-after-round", "--store", "--workers", "--listen", "--heartbeat",
    "--register-wait"};

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

// --shards 0: the same plan -> run -> record loop as run_sharded, on this
// process's threads, with the same round observer.
campaign::campaign_report run_in_process(
    const campaign::campaign_spec& spec,
    const std::function<void(const obs::round_summary&)>& observer,
    bool progress) {
    campaign::engine eng{spec};
    eng.set_round_observer(observer);
    if (progress)
        eng.set_progress([](std::uint64_t done, std::uint64_t total) {
            std::fprintf(stderr, "\r%llu/%llu trials",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(total));
            if (done == total) std::fprintf(stderr, "\n");
        });
    return eng.run();
}

}  // namespace

int main(int argc, char** argv) {
    campaign::campaign_spec spec = campaign::default_spec();
    spec.trials_per_cell = 112;
    dist::sharded_options options;
    const char* json_path = nullptr;
    const char* telemetry_path = nullptr;
    const char* trace_path = nullptr;
    bool table = false;
    bool progress = false;
    unsigned long long kill_after_round = 0;
    const char* metrics_out_path = nullptr;
    dist::net_options net;
    bool listen = false;
    const char* orchestrator_flag = nullptr;  // the last one given

    try {
        for (int i = 1; i < argc; ++i) {
            auto next_value = [&](const char* flag) -> const char* {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s needs a value\n", flag);
                    usage(argv[0]);
                    std::exit(2);
                }
                return argv[++i];
            };
            auto count = [&](const char* flag, std::uint64_t min = 0,
                             std::uint64_t max = UINT64_MAX) {
                return util::parse_count(flag, next_value(flag), min, max);
            };
            auto nonnegative = [&](const char* flag) {
                return util::parse_nonnegative(flag, next_value(flag));
            };
            if (std::find(kOrchestratorFlags.begin(), kOrchestratorFlags.end(),
                          argv[i]) != kOrchestratorFlags.end())
                orchestrator_flag = argv[i];
            if (!std::strcmp(argv[i], "--shards")) {
                options.shards =
                    static_cast<unsigned>(count("--shards", 0, UINT_MAX));
            } else if (!std::strcmp(argv[i], "--trials")) {
                spec.trials_per_cell = count("--trials");
            } else if (!std::strcmp(argv[i], "--jobs")) {
                spec.jobs = static_cast<unsigned>(count("--jobs", 0, UINT_MAX));
            } else if (!std::strcmp(argv[i], "--seed")) {
                spec.master_seed = count("--seed");
            } else if (!std::strcmp(argv[i], "--budget")) {
                spec.query_budget = count("--budget");
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
                spec.target_ci_halfwidth = nonnegative("--target");
            } else if (!std::strcmp(argv[i], "--round-blocks")) {
                spec.round_blocks = count("--round-blocks");
            } else if (!std::strcmp(argv[i], "--min-trials")) {
                spec.min_trials_per_cell = count("--min-trials");
            } else if (!std::strcmp(argv[i], "--worker")) {
                options.worker_path = next_value("--worker");
            } else if (!std::strcmp(argv[i], "--dispatch")) {
                const char* value = next_value("--dispatch");
                const auto mode = vm::dispatch_from_string(value);
                if (!mode) {
                    std::fprintf(stderr,
                                 "--dispatch must be threaded or switch\n");
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
            } else if (!std::strcmp(argv[i], "--telemetry")) {
                telemetry_path = next_value("--telemetry");
            } else if (!std::strcmp(argv[i], "--trace-out")) {
                trace_path = next_value("--trace-out");
            } else if (!std::strcmp(argv[i], "--progress")) {
                progress = true;
            } else if (!std::strcmp(argv[i], "--max-attempts")) {
                options.faults.max_attempts =
                    static_cast<unsigned>(count("--max-attempts", 1, UINT_MAX));
            } else if (!std::strcmp(argv[i], "--timeout")) {
                options.faults.timeout_seconds = nonnegative("--timeout");
            } else if (!std::strcmp(argv[i], "--backoff")) {
                options.faults.backoff_base_seconds = nonnegative("--backoff");
            } else if (!std::strcmp(argv[i], "--resume")) {
                options.resume = true;
            } else if (!std::strcmp(argv[i], "--kill-after-round")) {
                kill_after_round = count("--kill-after-round");
            } else if (!std::strcmp(argv[i], "--store")) {
                options.checkpoint_dir = next_value("--store");
            } else if (!std::strcmp(argv[i], "--metrics-out")) {
                metrics_out_path = next_value("--metrics-out");
            } else if (!std::strcmp(argv[i], "--workers")) {
                net.fleet_workers =
                    static_cast<unsigned>(count("--workers", 1, UINT_MAX));
            } else if (!std::strcmp(argv[i], "--listen")) {
                // [HOST:]PORT — split on the last ':' so a future bracketed
                // v6 literal parses as one host token.
                const std::string_view text = next_value("--listen");
                const auto colon = text.rfind(':');
                if (colon != std::string_view::npos)
                    net.listen_host = text.substr(0, colon);
                net.listen_port = static_cast<std::uint16_t>(util::parse_count(
                    "--listen",
                    colon == std::string_view::npos ? text
                                                    : text.substr(colon + 1),
                    0, 65535));
                listen = true;
            } else if (!std::strcmp(argv[i], "--heartbeat")) {
                // 0 keeps the default, as for --register-wait.
                if (const double s = nonnegative("--heartbeat"); s > 0.0)
                    net.heartbeat_seconds = s;
            } else if (!std::strcmp(argv[i], "--register-wait")) {
                if (const double s = nonnegative("--register-wait"); s > 0.0)
                    net.register_wait_seconds = s;
            } else {
                usage(argv[0]);
                return 2;
            }
        }
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (options.shards == 0 && orchestrator_flag != nullptr) {
        std::fprintf(stderr, "%s needs --shards >= 1\n", orchestrator_flag);
        return 2;
    }
    if (options.resume && options.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--resume needs --store DIR\n");
        return 2;
    }
    if (kill_after_round != 0 && options.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--kill-after-round needs --store DIR\n");
        return 2;
    }
    if (net.fleet_workers != 0 && listen) {
        std::fprintf(stderr,
                     "--workers (self-spawned fleet) and --listen (external "
                     "workers) are mutually exclusive\n");
        return 2;
    }
    if (net.fleet_workers != 0 || listen) {
        net.on_listen = [host = net.listen_host](std::uint16_t port) {
            std::fprintf(stderr, "coordinator listening on %s:%u\n",
                         host.c_str(), static_cast<unsigned>(port));
        };
        options.net = std::move(net);
    }

    if (trace_path != nullptr) obs::enable_tracing(true);
    obs::telemetry_writer telemetry;
    if (telemetry_path != nullptr && !telemetry.open(telemetry_path)) return 1;
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
        // The one round observer of both modes. The orchestrator calls it
        // after the round is durable in the store, and the telemetry line
        // comes before the kill hook — so a --kill-after-round death
        // leaves exactly N rounds on disk, every one of them recorded.
        // Stdout stays the report's.
        std::uint64_t blocks_done = 0;
        options.round_observer = [&](const obs::round_summary& r) {
            telemetry.append(r);
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

        const auto report =
            options.shards == 0
                ? run_in_process(spec, options.round_observer, progress)
                : dist::run_sharded(spec, options);
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
