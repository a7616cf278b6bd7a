// The campaign front end: parses the campaign flags, runs the campaign
// through dist::run_sharded and writes its report. --shards 0 runs every
// round on this process's threads; --shards N >= 1 fans the rounds out
// across worker processes or, with --workers/--listen, a TCP fleet. The
// report is byte-identical in every mode, at every shard count and jobs
// level; tests/identity/campaign_identity.sh pins that by diffing
// --shards 0 against --shards 1 and 4.
//
// One round loop serves every mode. --store names its durable log
// (sharded_options::checkpoint_dir): block partials, round summaries and
// the final metrics snapshot, read back with tools_campaign_query
// (--follow, --metrics, --report). --progress and --kill-after-round
// hang off the per-round summaries the loop hands its observer. Flags
// that only act on worker processes are refused with --shards 0.

#include <algorithm>
#include <array>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "campaign/campaign.hpp"
#include "dist/orchestrator.hpp"
#include "obs/span.hpp"
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
                 "          [--store DIR [--resume]] [--worker PATH]\n"
                 "          [--json PATH|-] [--table]\n"
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
                 "  --trace-out PATH  Chrome trace_event JSON of this run's\n"
                 "               spans (rounds, trial blocks, worker\n"
                 "               lifetimes, wire encode/decode) — load in\n"
                 "               chrome://tracing or Perfetto\n"
                 "  --progress   one line per round on stderr (stdout\n"
                 "               untouched)\n"
                 "  --store DIR  persist every accepted round (block partials\n"
                 "               and summary, fsync'd) and the final metrics\n"
                 "               snapshot to a crash-resumable result store in\n"
                 "               DIR (read it with tools_campaign_query\n"
                 "               --follow, --metrics, --report; report bytes\n"
                 "               identical store on or off)\n"
                 "  --resume     continue the store in --store DIR (spec\n"
                 "               digest must match); completed rounds are\n"
                 "               replayed, only missing work re-runs, and the\n"
                 "               final report is byte-identical\n"
                 "  --kill-after-round N  test hook: raise(SIGKILL) right\n"
                 "               after round N is stored — simulates an\n"
                 "               orchestrator crash for --resume testing\n"
                 "worker processes only (refused with --shards 0):\n"
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

// The flags that act only on worker processes.
constexpr std::array<std::string_view, 8> kWorkerFlags{
    "--worker",  "--max-attempts", "--timeout",   "--backoff",
    "--workers", "--listen",       "--heartbeat", "--register-wait"};

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
    const char* trace_path = nullptr;
    bool table = false;
    bool progress = false;
    unsigned long long kill_after_round = 0;
    dist::net_options net;
    bool listen = false;
    const char* worker_flag = nullptr;  // the last one given

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
            if (std::find(kWorkerFlags.begin(), kWorkerFlags.end(), argv[i]) !=
                kWorkerFlags.end())
                worker_flag = argv[i];
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
    if (options.shards == 0 && worker_flag != nullptr) {
        std::fprintf(stderr, "%s needs --shards >= 1\n", worker_flag);
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
    // Written on every exit path below that returns from a completed run.
    auto dump_trace = [trace_path] {
        if (trace_path == nullptr) return true;
        if (!write_text(trace_path,
                        obs::chrome_trace_json("tools_campaign_shard")))
            return false;
        std::fprintf(stderr, "trace written to %s\n", trace_path);
        return true;
    };

    try {
        // The round observer. The orchestrator calls it after the round is
        // durable in the store, so a --kill-after-round death leaves
        // exactly N rounds on disk. Stdout stays the report's.
        std::uint64_t blocks_done = 0;
        options.round_observer = [&](const obs::round_summary& r) {
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

        const auto report = dist::run_sharded(spec, options);
        if (table) std::printf("%s\n", report.to_table().c_str());
        if (json_path != nullptr &&
            !write_text(json_path, report.to_json() + "\n"))
            return 1;
        return dump_trace() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
