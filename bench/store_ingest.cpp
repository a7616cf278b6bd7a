// Result-store ingest overhead — the cost of the campaign observatory.
//
// A/Bs the same sharded campaign with the store off vs on (the
// orchestrator's block ingest + round summaries + finalize, the
// tools_campaign_shard --store wiring), best-of-N wall time each side, and
// reports the
// relative overhead. The store's contract is that it is a strict side
// channel: the report bytes are asserted identical both ways, the
// store's reconstructed report is asserted identical to both, and the
// wall-clock cost is the only thing allowed to move — bounded by
// --max-overhead in CI.
//
//   bench_store_ingest [--trials N] [--shards N] [--reps N] [--seed S]
//                      [--json PATH|-] [--max-overhead P]
//
// Emits BENCH_store.json via --json for PR-over-PR tracking.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "bench_util.hpp"
#include "dist/orchestrator.hpp"
#include "store/query.hpp"

namespace {

using namespace pssp;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

campaign::campaign_spec bench_spec(std::uint64_t trials, std::uint64_t seed) {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = trials;
    spec.master_seed = seed;
    spec.query_budget = 512;
    return spec;
}

dist::sharded_options bench_options(unsigned shards) {
    dist::sharded_options options;
    options.shards = shards;
    options.flight_recorder = false;
    return options;
}

std::string fresh_store_dir(int rep) {
    const char* tmp = std::getenv("TMPDIR");
    return std::string{tmp != nullptr ? tmp : "/tmp"} + "/pssp-bench-store-" +
           std::to_string(::getpid()) + "-" + std::to_string(rep);
}

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--trials N] [--shards N] [--reps N] [--seed S]\n"
                 "          [--json PATH|-] [--max-overhead P]\n"
                 "  --trials N       trials per cell (default 192)\n"
                 "  --shards N       worker shards (default 2)\n"
                 "  --reps N         repetitions per side, best kept "
                 "(default 3)\n"
                 "  --seed S         master seed (default 2018)\n"
                 "  --json PATH      write BENCH_store.json ('-' = stdout)\n"
                 "  --max-overhead P fail if store-on wall time exceeds\n"
                 "                   store-off by more than P%%\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t trials = 192;
    unsigned shards = 2;
    int reps = 3;
    std::uint64_t seed = 2018;
    const char* json_path = nullptr;
    double max_overhead = -1.0;

    for (int i = 1; i < argc; ++i) {
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--trials")) {
            trials = std::strtoull(next_value("--trials"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--shards")) {
            shards = static_cast<unsigned>(
                std::strtoul(next_value("--shards"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--reps")) {
            reps = static_cast<int>(
                std::strtol(next_value("--reps"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--seed")) {
            seed = std::strtoull(next_value("--seed"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = next_value("--json");
        } else if (!std::strcmp(argv[i], "--max-overhead")) {
            max_overhead = std::strtod(next_value("--max-overhead"), nullptr);
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    bench::print_header(
        "result-store ingest overhead",
        "the campaign observatory must be a strict side channel: identical "
        "report bytes, bounded wall-clock cost");

    const auto spec = bench_spec(trials, seed);
    std::string off_report;
    std::string on_report;
    double best_off = 0.0;
    double best_on = 0.0;
    std::uint64_t store_blocks = 0;

    // Alternate sides so drift (page cache, CPU clocks) hits both evenly.
    for (int rep = 0; rep < reps; ++rep) {
        {
            const auto start = clock_type::now();
            const auto report = dist::run_sharded(spec, bench_options(shards));
            const double secs = seconds_since(start);
            if (best_off == 0.0 || secs < best_off) best_off = secs;
            off_report = report.to_json();
        }
        {
            const auto dir = fresh_store_dir(rep);
            auto options = bench_options(shards);
            options.checkpoint_dir = dir;
            const auto start = clock_type::now();
            const auto report = dist::run_sharded(spec, options);
            const double secs = seconds_since(start);
            if (best_on == 0.0 || secs < best_on) best_on = secs;
            on_report = report.to_json();

            // The identity oracle, every rep: the store alone rebuilds
            // the report byte for byte.
            const auto data = store::load_store(dir);
            store_blocks = store::dedup_blocks(data).size();
            if (store::reconstruct_report(data).to_json() != on_report) {
                std::fprintf(stderr,
                             "FATAL: store reconstruction diverged from the "
                             "campaign report\n");
                return 1;
            }
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
        if (off_report != on_report) {
            std::fprintf(stderr,
                         "FATAL: store ingest moved the report bytes\n");
            return 1;
        }
    }

    const double overhead_percent =
        100.0 * (best_on - best_off) / best_off;
    std::printf("campaign (%llu trials/cell, %u shards), best of %d:\n",
                static_cast<unsigned long long>(trials), shards, reps);
    std::printf("  store off: %.3f s\n", best_off);
    std::printf("  store on:  %.3f s  (%llu blocks ingested)\n", best_on,
                static_cast<unsigned long long>(store_blocks));
    std::printf("  ingest overhead: %.2f%%\n", overhead_percent);
    std::printf("  report bytes: identical; reconstruction: identical\n");

    if (json_path != nullptr) {
        std::ostringstream json;
        char buf[256];
        json << "{\n  \"bench\": \"store_ingest\",\n";
        std::snprintf(buf, sizeof buf,
                      "  \"trials_per_cell\": %llu,\n  \"shards\": %u,\n"
                      "  \"reps\": %d,\n",
                      static_cast<unsigned long long>(trials), shards, reps);
        json << buf;
        std::snprintf(buf, sizeof buf,
                      "  \"store_off_seconds\": %.4f,\n"
                      "  \"store_on_seconds\": %.4f,\n"
                      "  \"ingested_blocks\": %llu,\n"
                      "  \"overhead_percent\": %.2f,\n"
                      "  \"report_identical\": true\n}\n",
                      best_off, best_on,
                      static_cast<unsigned long long>(store_blocks),
                      overhead_percent);
        json << buf;
        if (!std::strcmp(json_path, "-")) {
            std::printf("%s", json.str().c_str());
        } else {
            std::ofstream out{json_path, std::ios::binary};
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", json_path);
                return 1;
            }
            out << json.str();
        }
    }

    if (max_overhead >= 0.0 && overhead_percent > max_overhead) {
        std::fprintf(stderr,
                     "FAIL: store ingest overhead %.2f%% > allowed %.2f%%\n",
                     overhead_percent, max_overhead);
        return 1;
    }
    return 0;
}
