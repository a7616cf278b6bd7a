// Shared pieces of the campaign benchmark: workload definitions, the timed
// campaign call, registry deltas and small statistics helpers.
//
// The benchmark sees the program only through its public functions. A
// workload is a campaign spec plus the way it is executed (in-process
// engine, local pipe shards, or a localhost TCP fleet); one "iteration" is
// one complete campaign call, and everything reported is derived from
// iterations, their round observer callbacks and the obs registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

enum class exec_mode { engine, pipes, fleet };

struct workload_def {
    std::string name;
    exec_mode mode = exec_mode::engine;
    bool smoke = false;
    pssp::campaign::campaign_spec spec;
};

// The four named workloads; `smoke` shrinks each to a few blocks.
[[nodiscard]] workload_def make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke);
[[nodiscard]] const std::vector<std::string>& workload_names();

// Every (target, scheme) pair a spec touches, in canonical order.
[[nodiscard]] std::vector<std::pair<pssp::workload::target_kind,
                                    pssp::core::scheme_kind>>
victim_pairs(const pssp::campaign::campaign_spec& spec);

// Exact counts read from the obs registry (counters by value, histograms
// by sum and sample count).
using counts = std::map<std::string, std::uint64_t>;
[[nodiscard]] counts registry_counts();
[[nodiscard]] counts counts_delta(const counts& after, const counts& before);
[[nodiscard]] std::uint64_t get(const counts& c, const std::string& key);

// Wall seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] double now_s();
// User + system CPU seconds of this process plus its reaped children.
[[nodiscard]] double cpu_s();
// Peak RSS in MiB of this process, and of its largest reaped child.
[[nodiscard]] double peak_rss_mb(bool include_children);

[[nodiscard]] double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

// Seconds to make_victim every pair the workload touches.
[[nodiscard]] double build_victims(const workload_def& w);
// Set-up work that precedes a campaign call: build_victims and, for round
// workloads, store_writer::open. Returns the seconds it took; the store (if
// any) is opened fresh in `store_dir` and closed again.
[[nodiscard]] double timed_setup(const workload_def& w, const std::string& store_dir);

// One campaign call with everything the metrics need.
struct call_result {
    pssp::campaign::campaign_report report;
    std::string json;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double setup_s = 0.0;
    std::vector<double> round_ms;                    // observer intervals
    std::vector<pssp::obs::round_summary> summaries;
    // Canonical block indices per round, from the block_ingest hook.
    std::vector<std::vector<std::uint64_t>> round_blocks;
    double store_hook_s = 0.0;   // ingest_blocks + ingest_round
    double finalize_s = 0.0;     // store_writer::finalize
    std::uint64_t store_log_bytes = 0;
    std::uint64_t checkpoint_bytes = 0;
    counts delta;                // registry delta across the call
};

// Runs one iteration of `w` in a fresh directory under `work_dir` (removed
// afterwards). Throws on any campaign failure.
[[nodiscard]] call_result run_campaign(const workload_def& w,
                                       const std::string& work_dir);

// Total oracle queries of a report: the exact sum of per-trial queries.
[[nodiscard]] std::uint64_t report_queries(
    const pssp::campaign::campaign_report& report);

// Result of the traced run: per-layer metrics and the printed ledger.
struct traced_result {
    std::map<std::string, std::pair<double, std::string>> metrics;  // value, unit
    std::string report_json;
    std::uint64_t attempted = 0;
};
[[nodiscard]] traced_result run_traced(const workload_def& w,
                                       const std::string& work_dir,
                                       const std::string& trace_path);

}  // namespace perfbench
