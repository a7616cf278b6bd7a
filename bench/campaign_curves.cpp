// Monte-Carlo attack-campaign curves — Table I's outcome column, measured.
//
// The paper states each scheme/attack outcome once ("prevented" /
// "compromised"); this bench reruns every pairing as a seeded campaign of
// independent trials — fresh server (fresh TLS canary C) per trial — and
// reports the outcome *distribution*: hijack and detection rates with
// Wilson 95% intervals, mean oracle queries to compromise, and the
// residual value of leaked canary bytes at replay time.
//
// This is the paper view only: the default spec, run in this process.
// The report is a pure function of the spec; --jobs only changes
// wall-clock. Every other campaign knob — report JSON, adaptive
// allocation, shards, telemetry — is tools_campaign_shard's, whose
// --shards 0 runs the same engine on the same spec:
//   tools_campaign_shard --shards 0 --jobs 1 --json a.json
//   tools_campaign_shard --shards 0 --jobs 8 --json b.json
//   cmp a.json b.json

#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench_util.hpp"
#include "campaign/engine.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
    using namespace pssp;
    campaign::campaign_spec spec = campaign::default_spec();
    spec.trials_per_cell = 112;
    try {
        for (int i = 1; i < argc; ++i) {
            if (i + 1 < argc && !std::strcmp(argv[i], "--trials")) {
                spec.trials_per_cell = util::parse_count("--trials", argv[++i]);
            } else if (i + 1 < argc && !std::strcmp(argv[i], "--jobs")) {
                spec.jobs = static_cast<unsigned>(
                    util::parse_count("--jobs", argv[++i], 0, UINT_MAX));
            } else {
                std::fprintf(stderr,
                             "usage: %s [--trials N] [--jobs N]\n"
                             "  --trials N  trials per campaign cell (default "
                             "112: 9 cells x 112 = 1008 trials)\n"
                             "  --jobs N    worker threads (default 1; 0 = all "
                             "cores)\n",
                             argv[0]);
                return 2;
            }
        }
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    bench::print_header("Attack-campaign detection curves",
                        "Table I outcomes as measured probabilities "
                        "(Sections III-C, IV-C, VI-C)");
    std::printf("campaign: %llu cells x %llu trials, seed %llu, budget %llu, "
                "jobs %u\n\n",
                static_cast<unsigned long long>(spec.cell_count()),
                static_cast<unsigned long long>(spec.trials_per_cell),
                static_cast<unsigned long long>(spec.master_seed),
                static_cast<unsigned long long>(spec.query_budget), spec.jobs);

    campaign::campaign_report report;
    try {
        report = campaign::engine{spec}.run();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", report.to_table().c_str());
    std::printf(
        "paper: byte-by-byte compromises SSP (expected ~8*2^7+1 = 1025\n"
        "       queries) and fails against P-SSP with detection rate ~1;\n"
        "       RAF-SSP also defeats byte-by-byte (C renewed per fork) but\n"
        "       its leak window matches SSP's. Leaked canaries stay fully\n"
        "       valid under SSP (8/8 bytes) and go stale under P-SSP.\n");
    return 0;
}
