// Campaign benchmark: one command, four named workloads, every metric by
// name with its unit, reports checked against pinned digests.
//
//   perfbench_campaign --workload NAME --seed N --seconds S --trace 0|1
//                      [--smoke] [--pinned FILE] [--work-dir DIR]
//
// --trace 0 repeats the workload's campaign call for S seconds with tracing
// off and prints the end-to-end metrics; --trace 1 runs the traced ledger
// (traced.cpp) and prints the per-layer metrics. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. perfbench/
// README.md describes the workloads, metrics and pinned counts.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/engine.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
using namespace pssp;

struct options {
    std::string workload;
    std::uint64_t seed = 2018;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string pinned;
    std::string work_dir = ".bench_build/perfbench-work";
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--pinned FILE] [--work-dir DIR]\n"
                 "workloads: matrix_ali matrix_apache rounds_pipes rounds_fleet\n",
                 argv0);
    std::exit(2);
}

options parse_args(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        auto value = [&] {
            if (i + 1 >= argc) usage(argv[0]);
            return std::string{argv[++i]};
        };
        if (!std::strcmp(argv[i], "--workload")) o.workload = value();
        else if (!std::strcmp(argv[i], "--seed")) o.seed = std::stoull(value());
        else if (!std::strcmp(argv[i], "--seconds")) o.seconds = std::stod(value());
        else if (!std::strcmp(argv[i], "--trace")) o.trace = value() != "0";
        else if (!std::strcmp(argv[i], "--smoke")) o.smoke = true;
        else if (!std::strcmp(argv[i], "--pinned")) o.pinned = value();
        else if (!std::strcmp(argv[i], "--work-dir")) o.work_dir = value();
        else usage(argv[0]);
    }
    if (o.workload.empty()) usage(argv[0]);
    return o;
}

// The exact work counts of one campaign call. All of them are pure
// functions of (workload, seed): a changed count means the workload
// changed, not the speed.
counts work_counts(const call_result& c) {
    counts k;
    k["oracle_queries"] = report_queries(c.report);
    k["trials"] = c.report.total_trials();
    k["rounds"] = c.summaries.size();
    std::uint64_t blocks = 0;
    for (const auto& s : c.summaries) blocks += s.blocks;
    k["blocks"] = blocks;
    k["serve_requests"] = get(c.delta, "proc.serve.requests");
    k["guest_steps"] = get(c.delta, "proc.serve.worker_steps.sum");
    k["fork_dirty_pages"] = get(c.delta, "proc.fork.dirty_pages.sum");
    k["reboot_dirty_pages"] = get(c.delta, "proc.reboot.dirty_pages.sum");
    k["spawned_workers"] = get(c.delta, "dist.spawned_workers");
    k["leases"] = get(c.delta, "dist.net.leases");
    return k;
}

std::string counts_json(const counts& k) {
    std::string out = "{";
    for (const auto& [name, value] : k) {
        if (out.size() > 1) out += ", ";
        out += "\"" + name + "\": " + std::to_string(value);
    }
    return out + "}";
}

std::string hex64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// Paper-level sanity anchors that hold at every seed (Section VI-C and
// IV-C): SSP falls to byte-by-byte, P-SSP detects it, leak-replay hijacks
// SSP and is stale against P-SSP-OWF.
std::vector<std::string> anchor_violations(const campaign::campaign_report& r) {
    std::vector<std::string> bad;
    for (const auto& c : r.cells) {
        const std::string name = workload::to_string(c.target) + "/" +
                                 core::to_string(c.scheme) + "/" +
                                 attack::to_string(c.attack) + " (" +
                                 std::to_string(c.hijacks) + " hijacks, " +
                                 std::to_string(c.detections) + " detections in " +
                                 std::to_string(c.trials) + " trials)";
        const bool bbb = c.attack == attack::attack_kind::byte_by_byte;
        const bool leak = c.attack == attack::attack_kind::leak_replay;
        if (bbb && c.scheme == core::scheme_kind::ssp && c.hijacks != c.trials)
            bad.push_back(name + ": SSP byte-by-byte must always hijack");
        if (bbb && c.scheme == core::scheme_kind::p_ssp &&
            (c.hijacks != 0 || c.detections != c.trials))
            bad.push_back(name + ": P-SSP must detect every byte-by-byte trial");
        if (leak && c.scheme == core::scheme_kind::ssp &&
            c.target != workload::target_kind::ali && c.hijacks != c.trials)
            bad.push_back(name + ": leak-replay must always hijack SSP");
        if (leak && c.scheme == core::scheme_kind::p_ssp_owf && c.hijacks != 0)
            bad.push_back(name + ": leak-replay must never hijack P-SSP-OWF");
    }
    return bad;
}

// Looks up the pinned digest and counts for this workload at this seed;
// returns the mismatches (empty when nothing is pinned for the seed). A null
// `k` checks the digest only.
std::vector<std::string> pinned_mismatches(const options& o, std::uint64_t digest,
                                           const counts* k) {
    std::vector<std::string> bad;
    if (o.pinned.empty()) return bad;
    std::ifstream in{o.pinned};
    if (!in) return {"cannot read pinned file " + o.pinned};
    std::stringstream text;
    text << in.rdbuf();
    const auto root = util::parse_json(text.str());
    const std::string key = o.workload + "@" + std::to_string(o.seed) +
                            (o.smoke ? "/smoke" : "");
    const auto* entry = root.at("runs").find(key);
    if (entry == nullptr) return bad;
    std::fprintf(stderr, "perfbench: checking pinned digest%s for %s\n",
                 k != nullptr ? " and counts" : "", key.c_str());
    if (entry->at("digest").as_string() != hex64(digest))
        bad.push_back("report digest " + hex64(digest) + " != pinned " +
                      entry->at("digest").as_string());
    if (k == nullptr) return bad;
    for (const auto& [name, value] : entry->at("counts").members())
        if (get(*k, name) != value.as_u64())
            bad.push_back("count " + name + " = " + std::to_string(get(*k, name)) +
                          " != pinned " + std::to_string(value.as_u64()));
    return bad;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, std::pair<double, std::string>>& m) {
    std::string out = std::string{"{\"correct\": "} + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : m) {
        // A run with no successful iteration has nothing to divide by;
        // keep the line valid JSON (it already reads correct: false).
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
        out += std::string{first ? "" : ", "} + "\"" + name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + vu.second + "\"}";
        first = false;
    }
    std::printf("%s}}\n", out.c_str());
    std::fflush(stdout);
}

int run_untraced(const options& o, const workload_def& w) {
    // Set-up is a few milliseconds: sample it several times and keep the
    // median, on top of the one sample each campaign call contributes.
    std::vector<double> setup;
    const int extra_setups = o.smoke ? 1 : 60;
    for (int k = 0; k < extra_setups; ++k) {
        const std::string dir = o.work_dir + "/setup-" + std::to_string(k);
        setup.push_back(timed_setup(w, dir));
        std::filesystem::remove_all(dir);
    }

    std::vector<double> wall_s, cpu_s_used, round_ms;
    std::uint64_t attempted = 0, failed = 0;
    std::string reference_json;
    campaign::campaign_report reference_report;
    counts reference_counts;
    const double start = now_s();
    while (attempted == 0 || (!o.smoke && now_s() - start < o.seconds)) {
        ++attempted;
        try {
            const call_result c = run_campaign(w, o.work_dir);
            const counts k = work_counts(c);
            if (reference_json.empty()) {
                reference_json = c.json;
                reference_report = c.report;
                reference_counts = k;
            } else if (c.json != reference_json) {
                throw std::runtime_error{"report differs from the first iteration's"};
            } else if (k != reference_counts) {
                throw std::runtime_error{"work counts " + counts_json(k) +
                                         " differ from the first iteration's " +
                                         counts_json(reference_counts)};
            }
            wall_s.push_back(c.wall_s);
            cpu_s_used.push_back(c.cpu_s);
            std::fprintf(stderr, "perfbench: iteration %llu: wall %.4f s, cpu %.4f s\n",
                         static_cast<unsigned long long>(attempted), c.wall_s, c.cpu_s);
            round_ms.insert(round_ms.end(), c.round_ms.begin(), c.round_ms.end());
            setup.push_back(c.setup_s);
        } catch (const std::exception& e) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAIL iteration %llu: %s\n",
                         static_cast<unsigned long long>(attempted), e.what());
        }
    }
    const double rss = peak_rss_mb(w.mode != exec_mode::engine);

    // Correctness, checked after every timed call so the checks cost no
    // measured time or memory: the in-process engine must reproduce the
    // sharded report byte for byte, the paper's anchors must hold, and the
    // digest and counts must match the pinned ones at a pinned seed.
    std::vector<std::string> bad;
    if (!reference_json.empty()) {
        for (const auto& v : anchor_violations(reference_report)) bad.push_back(v);
        if (w.mode != exec_mode::engine) {
            const counts before = registry_counts();
            campaign::engine engine{w.spec};
            const std::string in_process = engine.run().to_json();
            const counts delta = counts_delta(registry_counts(), before);
            if (in_process != reference_json)
                bad.push_back("sharded report differs from in-process engine::run");
            // The workers' guest work is invisible to this process's
            // registry; the in-process run of the same spec counts it.
            reference_counts["serve_requests"] = get(delta, "proc.serve.requests");
            reference_counts["guest_steps"] =
                get(delta, "proc.serve.worker_steps.sum");
            reference_counts["fork_dirty_pages"] =
                get(delta, "proc.fork.dirty_pages.sum");
            reference_counts["reboot_dirty_pages"] =
                get(delta, "proc.reboot.dirty_pages.sum");
        }
        const std::uint64_t digest = fnv1a(reference_json);
        std::fprintf(stderr, "perfbench: pin \"%s@%llu%s\": {\"digest\": \"%s\", "
                             "\"counts\": %s}\n",
                     o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                     o.smoke ? "/smoke" : "", hex64(digest).c_str(),
                     counts_json(reference_counts).c_str());
        for (const auto& v : pinned_mismatches(o, digest, &reference_counts))
            bad.push_back(v);
    }
    for (const auto& v : bad) std::fprintf(stderr, "perfbench: FAIL %s\n", v.c_str());
    if (!bad.empty()) failed = attempted;

    // Oracle queries are fork_server::serve requests, as the registry
    // counts them.
    const double queries = static_cast<double>(get(reference_counts, "serve_requests"));
    std::vector<double> qps, cpu_us;
    for (std::size_t i = 0; i < wall_s.size(); ++i) {
        qps.push_back(queries / wall_s[i]);
        cpu_us.push_back(cpu_s_used[i] / queries * 1e6);
    }

    std::map<std::string, std::pair<double, std::string>> m;
    m["queries_per_s"] = {median(qps), "1/s"};
    m["cpu_us_per_query"] = {median(cpu_us), "us"};
    m["round_ms_p50"] = {quantile(round_ms, 0.50), "ms"};
    m["round_ms_p95"] = {quantile(round_ms, 0.95), "ms"};
    m["setup_s"] = {median(setup), "s"};
    m["peak_rss_mb"] = {rss, "MB"};
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu iteration(s), %zu round sample(s), "
                 "%zu set-up sample(s)\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 static_cast<unsigned long long>(attempted), round_ms.size(),
                 setup.size());
    print_result(failed == 0, attempted, failed, m);
    return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const options o = parse_args(argc, argv);
    // A PSSP_OBS=OFF build compiles the registry to stubs that read zero;
    // every exact count and queries_per_s would then be silently wrong.
    const auto probe = obs::counter("perfbench.obs_probe");
    obs::add(probe, 1);
    if (obs::value(probe) == 0) {
        std::fprintf(stderr,
                     "perfbench: this build has the obs registry compiled out "
                     "(PSSP_OBS=OFF); its counters read zero, so the benchmark "
                     "refuses to run. Rebuild with -DPSSP_OBS=ON.\n");
        return 2;
    }
    try {
        const workload_def w = make_workload(o.workload, o.seed, o.smoke);
        std::filesystem::create_directories(o.work_dir);
        if (!o.trace) return run_untraced(o, w);
        const auto t = run_traced(w, o.work_dir,
                                  o.work_dir + "/trace-" + o.workload + ".json");
        const auto bad = pinned_mismatches(o, fnv1a(t.report_json), nullptr);
        for (const auto& v : bad) std::fprintf(stderr, "perfbench: FAIL %s\n", v.c_str());
        print_result(bad.empty(), t.attempted, bad.empty() ? 0 : t.attempted, t.metrics);
        return bad.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: FAIL %s\n", e.what());
        return 1;
    }
}
