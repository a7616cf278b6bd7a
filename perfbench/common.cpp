#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include <sys/resource.h>

#include "bench.hpp"
#include "campaign/engine.hpp"
#include "dist/orchestrator.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "store/store.hpp"
#include "workload/victim.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace pssp;

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"matrix_ali", "matrix_apache",
                                                "rounds_pipes", "rounds_fleet"};
    return names;
}

workload_def make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
    workload_def w;
    w.name = name;
    w.smoke = smoke;
    if (name == "matrix_ali" || name == "matrix_apache") {
        // default_spec()'s nine cells, retargeted, one 16-trial block per
        // cell so a run holds many campaign calls. One engine thread: nine
        // blocks this uneven (brute force costs ~2000x leak_replay) do not
        // balance over two, and two threads doubled the run-to-run spread
        // of cpu_us_per_query.
        w.spec = campaign::default_spec();
        w.spec.targets = {name == "matrix_ali" ? workload::target_kind::ali
                                               : workload::target_kind::apache};
        w.spec.trials_per_cell = smoke ? 8 : 16;
    } else if (name == "rounds_pipes" || name == "rounds_fleet") {
        // Leak-replay only, six schemes x three targets, the full budget
        // delivered two blocks per round: many cheap rounds, so the
        // per-round machinery dominates.
        w.mode = name == "rounds_pipes" ? exec_mode::pipes : exec_mode::fleet;
        w.spec = campaign::full_spec();
        w.spec.attacks = {attack::attack_kind::leak_replay};
        w.spec.targets = workload::all_target_kinds();
        w.spec.trials_per_cell = smoke ? 128 : 2048;
        w.spec.adaptive = true;
        w.spec.target_ci_halfwidth = 0.0;
        w.spec.round_blocks = 2;
    } else {
        throw std::invalid_argument{"unknown workload \"" + name + "\""};
    }
    w.spec.master_seed = seed;
    w.spec.jobs = w.mode == exec_mode::engine ? 1 : 2;
    return w;
}

std::vector<std::pair<workload::target_kind, core::scheme_kind>> victim_pairs(
    const campaign::campaign_spec& spec) {
    std::vector<std::pair<workload::target_kind, core::scheme_kind>> pairs;
    for (const auto t : spec.targets)
        for (const auto s : spec.schemes) pairs.emplace_back(t, s);
    return pairs;
}

counts registry_counts() {
    counts c;
    for (const auto& m : obs::snapshot()) {
        if (m.type == obs::metric_type::histogram) {
            c[m.name + ".sum"] = m.sum;
            c[m.name + ".count"] = m.count;
        } else {
            c[m.name] = m.value;
        }
    }
    return c;
}

counts counts_delta(const counts& after, const counts& before) {
    counts d;
    for (const auto& [name, value] : after) d[name] = value - get(before, name);
    return d;
}

std::uint64_t get(const counts& c, const std::string& key) {
    const auto it = c.find(key);
    return it == c.end() ? 0 : it->second;
}

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double tv_s(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double cpu_s() {
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return tv_s(self.ru_utime) + tv_s(self.ru_stime) + tv_s(children.ru_utime) +
           tv_s(children.ru_stime);
}

double peak_rss_mb(bool include_children) {
    // VmHWM, not getrusage(RUSAGE_SELF): ru_maxrss carries over the
    // high-water mark of whatever process forked this one before exec.
    long kib = 0;
    std::ifstream status{"/proc/self/status"};
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0) kib = std::stol(line.substr(6));
    if (include_children) {
        rusage children{};
        ::getrusage(RUSAGE_CHILDREN, &children);
        kib = std::max(kib, children.ru_maxrss);
    }
    return static_cast<double>(kib) / 1024.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    return ec ? 0 : size;
}

std::uint64_t dir_bytes(const std::string& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
        if (entry.is_regular_file()) total += entry.file_size();
    return total;
}

double build_victims(const workload_def& w) {
    obs::span sp{"workload.make_victim", "perfbench"};
    const double start = now_s();
    std::vector<workload::victim> victims;
    for (const auto& [target, scheme] : victim_pairs(w.spec))
        victims.push_back(workload::make_victim(target, scheme, w.spec.scheme_options));
    return now_s() - start;
}

namespace {

// Round workloads ingest into a store; opening it is set-up, timed into
// `seconds`.
std::optional<store::store_writer> open_store(const workload_def& w,
                                              const std::string& dir, double& seconds) {
    if (w.mode == exec_mode::engine) return std::nullopt;
    obs::span sp{"store.open", "perfbench"};
    const double start = now_s();
    auto store = store::store_writer::open(dir, w.spec, false);
    seconds += now_s() - start;
    return store;
}

}  // namespace

double timed_setup(const workload_def& w, const std::string& store_dir) {
    double seconds = build_victims(w);
    (void)open_store(w, store_dir, seconds);
    return seconds;
}

std::uint64_t report_queries(const campaign::campaign_report& report) {
    std::uint64_t total = 0;
    for (const auto& cell : report.cells)
        total += static_cast<std::uint64_t>(std::llround(cell.queries.total()));
    return total;
}

call_result run_campaign(const workload_def& w, const std::string& work_dir) {
    static unsigned iteration = 0;
    const std::string dir = work_dir + "/iter-" + std::to_string(iteration++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string store_dir = dir + "/store";
    const std::string checkpoint_dir = dir + "/checkpoint";

    call_result r;
    // Set-up: the victim builds, then (round workloads) the store this
    // call ingests into. Victims are rebuilt by the campaign itself; these
    // builds measure what preparing the workload costs.
    r.setup_s = build_victims(w);
    std::optional<store::store_writer> store = open_store(w, store_dir, r.setup_s);

    double last = 0.0;
    std::uint64_t last_ns = 0;
    auto on_round = [&](const obs::round_summary& summary) {
        const double t = now_s();
        const std::uint64_t t_ns = obs::trace_now_ns();
        obs::emit_span("round", "perfbench", last_ns, t_ns - last_ns,
                       static_cast<std::int64_t>(summary.round));
        r.round_ms.push_back((t - last) * 1e3);
        r.summaries.push_back(summary);
        last = t;
        last_ns = t_ns;
        if (store.has_value()) {
            obs::span sp{"store.ingest_round", "perfbench"};
            const double h = now_s();
            store->ingest_round(summary);
            r.store_hook_s += now_s() - h;
        }
    };

    const counts before = registry_counts();
    const double cpu_start = cpu_s();
    const double start = now_s();
    last = start;
    last_ns = obs::trace_now_ns();
    if (w.mode == exec_mode::engine) {
        obs::span sp{"campaign.engine.run", "perfbench"};
        campaign::engine engine{w.spec};
        engine.set_round_observer(on_round);
        r.report = engine.run();
    } else {
        dist::sharded_options options;
        options.shards = 2;
        options.jobs_per_shard = 1;
        options.checkpoint_dir = checkpoint_dir;
        options.postmortem_dir = dir;
        options.round_observer = on_round;
        options.block_ingest = [&](std::uint64_t round,
                                   std::span<const dist::partial_block> blocks) {
            std::vector<std::uint64_t> indices;
            for (const auto& b : blocks) indices.push_back(b.index);
            r.round_blocks.push_back(std::move(indices));
            obs::span sp{"store.ingest_blocks", "perfbench",
                         static_cast<std::int64_t>(round)};
            const double h = now_s();
            store->ingest_blocks(round, blocks);
            r.store_hook_s += now_s() - h;
        };
        if (w.mode == exec_mode::fleet) {
            dist::net_options net;
            net.fleet_workers = 2;
            options.net = std::move(net);
        }
        obs::span sp{"dist.run_sharded", "perfbench"};
        r.report = dist::run_sharded(w.spec, options);
    }
    r.wall_s = now_s() - start;
    r.cpu_s = cpu_s() - cpu_start;
    r.delta = counts_delta(registry_counts(), before);
    r.json = r.report.to_json();

    if (store.has_value()) {
        obs::span sp{"store.finalize", "perfbench"};
        const double f = now_s();
        store->finalize(r.report, obs::metrics_json());
        r.finalize_s = now_s() - f;
        r.store_log_bytes = file_bytes(store_dir + "/ingest.log");
        r.checkpoint_bytes = dir_bytes(checkpoint_dir);
    }
    store.reset();
    fs::remove_all(dir);
    return r;
}

}  // namespace perfbench
