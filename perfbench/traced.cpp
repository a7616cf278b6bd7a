// The traced run: per-layer metrics and a ledger whose rows plus an
// `unattributed` residual add up to the wall time.
//
// Everything here is outside-in. Spans and timers wrap the public calls
// into each layer from this file; nothing inside the program is edited.
//
//  1. The workload's campaign call runs once untraced and once traced; the
//     two reports must match, and the queries/s difference is the tracing
//     overhead.
//  2. A replica drives the same campaign trial by trial through public
//     calls (make_victim, master_pool::acquire, make_strategy()->execute,
//     cell_partial::add, assemble_report) on one thread, and must
//     reproduce the report byte for byte. It gives per-block compute times
//     and the time split across workload, proc, attack and campaign.
//  3. After each replica block, probes time what is nested inside execute:
//     fork_server::serve with attack-shaped payloads, and vm::machine::run /
//     sync_from on a worker cloned from a leased master. They split execute
//     into vm, proc and attack self time (an estimate: serve is nested in
//     execute).
//  4. Wire encode/decode, allocator replay and (for in-process workloads)
//     a store ingest probe run on the replica's block partials.
//
// Matrix workloads take their ledger from the replica (one thread, so the
// rows sum to its wall time). Round workloads take it from the traced
// sharded call: each round interval splits into the critical-path compute
// of its slowest shard (from replica block times), the store hooks, the
// allocator, and the dist remainder (spawn, wire, merge, checkpoint).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "attack/leak_replay.hpp"
#include "attack/strategy.hpp"
#include "bench.hpp"
#include "campaign/allocator.hpp"
#include "campaign/engine.hpp"
#include "core/tls_layout.hpp"
#include "crypto/prng.hpp"
#include "dist/wire.hpp"
#include "obs/span.hpp"
#include "store/store.hpp"
#include "workload/victim.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace pssp;

namespace {

struct pair_stats {
    std::uint64_t requests = 0;
    std::uint64_t steps = 0;
};

// Probe sums per request shape: [0] overflow requests, [1] leak requests.
struct probe_result {
    double serve_s = 0.0;
    std::uint64_t serves = 0;
    double sync_s = 0.0;
    std::uint64_t syncs = 0;
    double run_s[2] = {0.0, 0.0};
    std::uint64_t run_steps[2] = {0, 0};
    std::uint64_t runs[2] = {0, 0};
};

struct replica_result {
    campaign::campaign_report report;
    std::vector<campaign::block_ref> blocks;
    std::vector<campaign::cell_partial> partials;
    std::vector<double> block_s;   // compute seconds per block
    std::vector<std::optional<workload::victim>> victims;  // per pair
    std::vector<pair_stats> per_pair;
    std::vector<probe_result> probes;  // per pair, interleaved with blocks
    double wall_s = 0.0;
    double build_s = 0.0;
    double acquire_s = 0.0;   // acquire + lease release
    double execute_s = 0.0;   // make_strategy + execute, inclusive of serve
    double add_s = 0.0;
    double assemble_s = 0.0;
    counts delta;
};

// Requests shaped like the attacks'. Even k: an overflow with filler up to
// the canary, a canary guess, then saved rbp and the return target. Odd k:
// leak-replay's over-read request (its magic).
std::vector<std::uint8_t> attack_payload(const workload::victim& v,
                                         std::uint64_t& rng, int k) {
    if (k % 2 == 1) {
        std::vector<std::uint8_t> p;
        for (int i = 0; i < 8; ++i)
            p.push_back(static_cast<std::uint8_t>(attack::leak_magic >> (8 * i)));
        while (!p.empty() && p.back() == 0) p.pop_back();
        return p;
    }
    std::vector<std::uint8_t> p(v.prefix_bytes, 'A');
    auto put64 = [&p](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) p.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    };
    put64(crypto::splitmix64_next(rng));
    put64(v.saved_rbp);
    put64(v.ret_target);
    // The handler copies a C string; keep the payload NUL-free.
    for (auto& b : p)
        if (b == 0) b = 1;
    return p;
}


// Times fork_server::serve, and machine::sync_from / run on a worker
// cloned from the same leased master, alternating the two on identical
// attack-shaped requests so both see the same machine conditions.
void probe_pair(const workload::victim& v, std::uint64_t seed, int requests,
                probe_result& p) {
    std::uint64_t rng = seed;
    auto lease = v.pool->acquire(crypto::splitmix64_next(rng));
    proc::fork_server& server = lease.server();
    const auto& config = v.batch.config();
    const auto& data = v.batch.binary().data_symbols;
    const std::uint64_t request_addr = data.at(config.request_symbol);
    const auto len_it = data.find(config.length_symbol);
    vm::machine master{server.master()};
    vm::machine worker{master};
    worker.mem().mark_clean(vm::dirty_channel::fork);
    master.mem().mark_clean(vm::dirty_channel::fork);
    for (int k = 0; k < requests; ++k) {
        auto payload = attack_payload(v, rng, k);
        {
            obs::span sp{"proc.serve", "perfbench"};
            const double t0 = now_s();
            (void)server.serve(payload);
            p.serve_s += now_s() - t0;
            ++p.serves;
        }
        const std::uint64_t length = payload.size();
        payload.push_back(0);
        {
            obs::span sp{"vm.sync_from", "perfbench"};
            const double t0 = now_s();
            worker.sync_from(master);
            p.sync_s += now_s() - t0;
            ++p.syncs;
        }
        server.manager().fork_child_finish(worker);
        worker.complete_syscall(0);
        worker.mem().write_bytes(request_addr, payload);
        if (len_it != data.end()) worker.mem().store64(len_it->second, length);
        worker.set_fuel(worker.steps() + config.worker_fuel);
        const std::uint64_t steps_before = worker.steps();
        obs::span sp{"vm.run", "perfbench"};
        const double t0 = now_s();
        (void)worker.run();
        p.run_s[k % 2] += now_s() - t0;
        p.run_steps[k % 2] += worker.steps() - steps_before;
        ++p.runs[k % 2];
    }
}

// Mirrors campaign::engine's trial loop on one thread, with every call into
// a layer timed and wrapped in a span. After each block, `probe_requests`
// probe requests run against the block's victim; their time and registry
// counts are kept out of the replica's own.
replica_result run_replica(const campaign::campaign_spec& spec, int probe_requests) {
    replica_result r;
    const auto ids = campaign::cells_for(spec);
    const std::size_t n_attacks = spec.attacks.size();
    r.blocks = campaign::blocks_for(spec);
    r.partials.resize(r.blocks.size());
    r.block_s.resize(r.blocks.size());
    r.victims.resize(spec.targets.size() * spec.schemes.size());
    r.per_pair.resize(r.victims.size());
    r.probes.resize(r.victims.size());

    double probe_s = 0.0;
    const double start = now_s();
    for (std::size_t bi = 0; bi < r.blocks.size(); ++bi) {
        const auto& block = r.blocks[bi];
        const auto& id = ids[block.cell];
        const std::size_t vi = block.cell / n_attacks;
        if (!r.victims[vi].has_value()) {
            obs::span sp{"workload.make_victim", "perfbench",
                         static_cast<std::int64_t>(vi)};
            const double b0 = now_s();
            r.victims[vi].emplace(
                workload::make_victim(id.target, id.scheme, spec.scheme_options));
            r.victims[vi]->pool->set_idle_limit(1);
            r.build_s += now_s() - b0;
        }
        const workload::victim& v = *r.victims[vi];
        const counts block_before = registry_counts();
        obs::span block_span{"block", "perfbench",
                             static_cast<std::int64_t>(block.index)};
        const double block_start = now_s();
        for (std::uint64_t t = 0; t < block.trials; ++t) {
            const auto seeds =
                campaign::seeds_for_trial(spec.master_seed, block.first_trial + t);
            const double a0 = now_s();
            std::optional<proc::master_pool::lease> lease;
            {
                obs::span sp{"proc.acquire", "perfbench"};
                lease.emplace(v.pool->acquire(seeds.server));
            }
            const double a1 = now_s();
            attack::attack_context ctx{
                .oracle = lease->server(),
                .scheme = id.scheme,
                .prefix_bytes = v.prefix_bytes,
                .canary_bytes = v.canary_bytes,
                .ret_target = v.ret_target,
                .saved_rbp = v.saved_rbp,
                .seed = seeds.attacker,
                .query_budget = spec.query_budget,
                .true_canary_hint = 0,
                .unknown_bits = spec.brute_unknown_bits,
                .dcr_offset = 0,
            };
            if (id.attack == attack::attack_kind::brute_force)
                ctx.true_canary_hint =
                    core::tls_load(lease->server().master(), core::tls_canary);
            attack::attack_outcome outcome;
            {
                obs::span sp{"attack.execute", "perfbench"};
                outcome = attack::make_strategy(id.attack)->execute(ctx);
            }
            const double a2 = now_s();
            {
                obs::span sp{"campaign.add", "perfbench"};
                r.partials[bi].add(campaign::trial_result{
                    .hijacked = outcome.hijacked,
                    .detected = outcome.detected,
                    .oracle_queries = outcome.oracle_queries,
                    .canary_detections = outcome.canary_detections,
                    .other_crashes = outcome.other_crashes,
                    .leaked_bytes_valid = outcome.leaked_bytes_valid,
                });
            }
            const double a3 = now_s();
            lease.reset();
            const double a4 = now_s();
            r.acquire_s += (a1 - a0) + (a4 - a3);
            r.execute_s += a2 - a1;
            r.add_s += a3 - a2;
        }
        r.block_s[bi] = now_s() - block_start;
        const counts block_delta = counts_delta(registry_counts(), block_before);
        for (const auto& [name, value] : block_delta) r.delta[name] += value;
        r.per_pair[vi].requests += get(block_delta, "proc.serve.requests");
        r.per_pair[vi].steps += get(block_delta, "proc.serve.worker_steps.sum");

        const double p0 = now_s();
        probe_pair(v, spec.master_seed ^ block.index, probe_requests, r.probes[vi]);
        probe_s += now_s() - p0;
    }
    {
        obs::span sp{"campaign.assemble_report", "perfbench"};
        const double s0 = now_s();
        r.report = campaign::assemble_report(spec, r.blocks, r.partials);
        r.assemble_s = now_s() - s0;
    }
    r.wall_s = now_s() - start - probe_s;
    return r;
}

// In-order list scheduling of block times over `threads` workers: the
// engine's atomic block counter hands the next block to whichever thread
// frees up first.
double makespan(const std::vector<double>& block_s, unsigned threads) {
    std::vector<double> free_at(threads, 0.0);
    for (const double b : block_s) {
        auto it = std::min_element(free_at.begin(), free_at.end());
        *it += b;
    }
    return *std::max_element(free_at.begin(), free_at.end());
}

}  // namespace

traced_result run_traced(const workload_def& w, const std::string& work_dir,
                         const std::string& trace_path) {
    traced_result out;
    auto metric = [&out](const std::string& name, double value, const char* unit) {
        out.metrics[name] = {value, unit};
    };
    const bool rounds = w.mode != exec_mode::engine;

    // 1. Untraced and traced campaign calls.
    const call_result base = run_campaign(w, work_dir);
    obs::set_ring_capacity(1u << 16);
    obs::enable_tracing(true);
    const call_result traced = run_campaign(w, work_dir);
    if (traced.json != base.json)
        throw std::runtime_error{"traced report differs from the untraced one"};
    const double queries = static_cast<double>(report_queries(base.report));
    const double qps_base = queries / base.wall_s;
    const double qps_traced = queries / traced.wall_s;

    // 2. The replica, with the serve/VM probes interleaved per block.
    const replica_result rep = run_replica(w.spec, w.smoke ? 8 : 64);
    if (rep.report.to_json() != base.json)
        throw std::runtime_error{"replica report differs from the campaign's"};
    out.report_json = base.json;
    out.attempted = 3;  // untraced call, traced call, replica
    const double trials = static_cast<double>(rep.report.total_trials());
    const double blocks = static_cast<double>(rep.blocks.size());
    const double rep_requests = static_cast<double>(get(rep.delta, "proc.serve.requests"));

    // 3. Price what execute nests. A serve costs a fixed part (fork sync,
    // delivery, master resume, fork hook) plus the worker's guest run. The
    // guest run is fitted per pair as a + b * steps from the two probe
    // shapes, then priced on the replica's own request and step counts.
    double vm_est_s = 0.0, serve_fixed_s = 0.0;
    probe_result all;
    for (std::size_t vi = 0; vi < rep.probes.size(); ++vi) {
        const probe_result& p = rep.probes[vi];
        if (p.serves == 0) continue;
        const double run_total = p.run_s[0] + p.run_s[1];
        double t[2], n[2];
        for (int i = 0; i < 2; ++i) {
            t[i] = p.run_s[i] / static_cast<double>(p.runs[i]);
            n[i] = static_cast<double>(p.run_steps[i]) / static_cast<double>(p.runs[i]);
        }
        double per_step = (t[0] - t[1]) / (n[0] - n[1]);
        double per_run = t[0] - per_step * n[0];
        if (!(per_step > 0.0) || per_run < 0.0) {  // degenerate fit
            per_step = run_total / (n[0] * static_cast<double>(p.runs[0]) +
                                    n[1] * static_cast<double>(p.runs[1]));
            per_run = 0.0;
        }
        const auto requests = static_cast<double>(rep.per_pair[vi].requests);
        vm_est_s += per_run * requests +
                    per_step * static_cast<double>(rep.per_pair[vi].steps);
        serve_fixed_s += (p.serve_s - run_total) / static_cast<double>(p.serves) * requests;
        all.serve_s += p.serve_s;
        all.serves += p.serves;
        all.sync_s += p.sync_s;
        all.syncs += p.syncs;
        for (int i = 0; i < 2; ++i) {
            all.run_s[i] += p.run_s[i];
            all.run_steps[i] += p.run_steps[i];
            all.runs[i] += p.runs[i];
        }
    }

    // 4. Reduce, wire, allocator and store probes on the replica's blocks.
    double merge_s = 0.0;
    {
        obs::span sp{"campaign.merge", "perfbench"};
        std::vector<campaign::cell_partial> merged(campaign::cells_for(w.spec).size());
        const double t0 = now_s();
        for (std::size_t bi = 0; bi < rep.blocks.size(); ++bi)
            merged[rep.blocks[bi].cell].merge(rep.partials[bi]);
        merge_s = now_s() - t0;
    }
    const std::uint64_t digest = dist::spec_digest(w.spec);
    std::vector<dist::partial_block> wire_blocks;
    double encode_s = 0.0, decode_s = 0.0;
    for (std::size_t bi = 0; bi < rep.blocks.size(); ++bi) {
        wire_blocks.push_back({rep.blocks[bi].index, rep.blocks[bi].cell, rep.partials[bi]});
        dist::partial_report pr;
        pr.shard_count = 1;
        pr.digest = digest;
        pr.blocks = {wire_blocks.back()};
        obs::span sp{"dist.wire", "perfbench"};
        const double t0 = now_s();
        const std::string text = dist::partial_to_json(pr);
        const double t1 = now_s();
        const auto back = dist::partial_from_json(text);
        decode_s += now_s() - t1;
        encode_s += t1 - t0;
        if (back.blocks.size() != 1)
            throw std::runtime_error{"wire round trip lost a block"};
    }
    // Allocator replay: the round workloads' own schedule; a fixed matrix
    // replays as the one-round adaptive run it is equivalent to.
    campaign::campaign_spec alloc_spec = w.spec;
    if (!alloc_spec.adaptive) {
        alloc_spec.adaptive = true;
        alloc_spec.target_ci_halfwidth = 0.0;
        alloc_spec.round_blocks = rep.blocks.size();
    }
    double alloc_s = 0.0;
    std::uint64_t alloc_rounds = 0;
    {
        obs::span sp{"campaign.allocator", "perfbench"};
        campaign::adaptive_allocator allocator{alloc_spec};
        const double t0 = now_s();
        for (;;) {
            const auto plan = allocator.plan_round();
            if (plan.empty()) break;
            std::vector<campaign::cell_partial> ps;
            for (const auto& b : plan) ps.push_back(rep.partials[b.index]);
            allocator.record_round(plan, ps);
            ++alloc_rounds;
        }
        alloc_s = now_s() - t0;
    }
    double store_ingest_ms_per_round = 0.0, store_finalize_ms = 0.0;
    double log_bytes_per_block = 0.0, ckpt_bytes_per_block = 0.0;
    if (rounds) {
        store_ingest_ms_per_round =
            traced.store_hook_s * 1e3 / static_cast<double>(traced.summaries.size());
        store_finalize_ms = traced.finalize_s * 1e3;
        log_bytes_per_block = static_cast<double>(traced.store_log_bytes) / blocks;
        ckpt_bytes_per_block = static_cast<double>(traced.checkpoint_bytes) / blocks;
    } else {
        // No store on the in-process path: ingest this workload's blocks
        // as its single fixed round into a scratch store.
        const std::string dir = work_dir + "/store-probe";
        fs::remove_all(dir);
        auto store = store::store_writer::open(dir, w.spec, false);
        obs::span sp{"store.probe", "perfbench"};
        const double t0 = now_s();
        store.ingest_blocks(0, wire_blocks);
        store.ingest_round(base.summaries.at(0));
        const double t1 = now_s();
        store.finalize(base.report, "{}");
        store_finalize_ms = (now_s() - t1) * 1e3;
        store_ingest_ms_per_round = (t1 - t0) * 1e3;
        log_bytes_per_block = static_cast<double>(file_bytes(dir + "/ingest.log")) / blocks;
        fs::remove_all(dir);
    }

    // 5. The ledger. A round's critical-path compute: its blocks split
    // round-robin by position over the two shards, the slowest shard wins.
    std::map<std::uint64_t, double> block_time;
    for (std::size_t bi = 0; bi < rep.blocks.size(); ++bi)
        block_time[rep.blocks[bi].index] = rep.block_s[bi];
    auto slowest_shard_s = [&block_time](const std::vector<std::uint64_t>& round) {
        const std::size_t shards = std::min<std::size_t>(2, round.size());
        double slowest = 0.0;
        for (std::size_t k = 0; k < shards; ++k) {
            double t = 0.0;
            for (std::size_t p = k; p < round.size(); p += shards)
                t += block_time.at(round[p]);
            slowest = std::max(slowest, t);
        }
        return slowest;
    };
    const double attack_self_s = rep.execute_s - vm_est_s - serve_fixed_s;
    struct row {
        const char* name;
        double seconds;
    };
    std::vector<row> rows;
    double wall = 0.0;
    if (!rounds) {
        wall = rep.wall_s;
        rows = {{"workload", rep.build_s},
                {"proc", rep.acquire_s + serve_fixed_s},
                {"vm", vm_est_s},
                {"attack", attack_self_s},
                {"campaign", rep.add_s + rep.assemble_s},
                {"dist", 0.0},
                {"store", 0.0}};
    } else {
        double compute = 0.0;
        for (const auto& round : traced.round_blocks)
            compute += slowest_shard_s(round);
        double intervals = 0.0;
        for (const double ms : traced.round_ms) intervals += ms / 1e3;
        wall = traced.wall_s;
        // Spread the critical-path compute over the layers in the
        // proportions the replica measured for the same blocks.
        double rep_compute = 0.0;
        for (const double b : rep.block_s) rep_compute += b;
        const double scale = compute / rep_compute;
        rows = {{"workload", 0.0},
                {"proc", scale * (rep.acquire_s + serve_fixed_s)},
                {"vm", scale * vm_est_s},
                {"attack", scale * attack_self_s},
                {"campaign", scale * rep.add_s + alloc_s},
                {"dist", intervals - compute - traced.store_hook_s - alloc_s},
                {"store", traced.store_hook_s}};
    }
    double attributed = 0.0;
    for (const auto& r : rows) attributed += r.seconds;
    rows.push_back({"unattributed", wall - attributed});
    std::fprintf(stderr, "perfbench: ledger for %s (wall %.3f s, %s)\n",
                 w.name.c_str(), wall,
                 rounds ? "traced sharded call" : "one-thread replica");
    std::fprintf(stderr, "  %-14s %12s %8s\n", "row", "self ms", "share");
    for (const auto& r : rows) {
        std::fprintf(stderr, "  %-14s %12.3f %7.2f%%\n", r.name, r.seconds * 1e3,
                     100.0 * r.seconds / wall);
        metric(std::string{"ledger."} + r.name + "_pct", 100.0 * r.seconds / wall, "%");
    }
    metric("ledger.wall_s", wall, "s");

    // 6. Per-layer metrics.
    const auto& d = rep.delta;
    metric("vm.steps_per_query",
           static_cast<double>(get(d, "proc.serve.worker_steps.sum")) / rep_requests, "count");
    metric("vm.ns_per_step",
           (all.run_s[0] + all.run_s[1]) * 1e9 /
               static_cast<double>(all.run_steps[0] + all.run_steps[1]),
           "ns");
    metric("vm.sync_us_per_fork", all.sync_s * 1e6 / static_cast<double>(all.syncs), "us");
    metric("proc.serve_us_per_query", all.serve_s * 1e6 / static_cast<double>(all.serves),
           "us");
    metric("proc.fork_dirty_pages_per_query",
           static_cast<double>(get(d, "proc.fork.dirty_pages.sum")) / rep_requests, "count");
    metric("proc.reboot_dirty_pages",
           static_cast<double>(get(d, "proc.reboot.dirty_pages.sum")) /
               static_cast<double>(std::max<std::uint64_t>(get(d, "proc.reboot.dirty_pages.count"), 1)),
           "count");
    metric("proc.acquire_us_per_trial", rep.acquire_s * 1e6 / trials, "us");
    const double boots = static_cast<double>(get(d, "proc.pool.boots"));
    const double reuses = static_cast<double>(get(d, "proc.pool.reuses"));
    metric("proc.pool_reuse_ratio", reuses / (boots + reuses), "ratio");
    metric("attack.queries_per_trial", queries / trials, "count");
    metric("attack.execute_us_per_trial", rep.execute_s * 1e6 / trials, "us");
    metric("attack.self_us_per_query", attack_self_s * 1e6 / rep_requests, "us");
    metric("workload.build_ms", rep.build_s * 1e3, "ms");
    metric("campaign.reduce_us_per_block", (rep.add_s + merge_s) * 1e6 / blocks, "us");
    metric("campaign.assemble_ms", rep.assemble_s * 1e3, "ms");
    metric("campaign.allocator_us_per_round",
           alloc_s * 1e6 / static_cast<double>(alloc_rounds), "us");
    double overhead_ms = 0.0;
    if (rounds) {
        for (std::size_t i = 0; i < traced.round_blocks.size(); ++i)
            overhead_ms += traced.round_ms.at(i) -
                           slowest_shard_s(traced.round_blocks[i]) * 1e3;
        overhead_ms /= static_cast<double>(traced.round_blocks.size());
    } else {
        overhead_ms = (traced.wall_s - makespan(rep.block_s, w.spec.jobs)) * 1e3;
    }
    metric("dist.round_overhead_ms", overhead_ms, "ms");
    metric("dist.wire_encode_us_per_block", encode_s * 1e6 / blocks, "us");
    metric("dist.wire_decode_us_per_block", decode_s * 1e6 / blocks, "us");
    const auto& td = traced.delta;
    metric("dist.spawned_workers", static_cast<double>(get(td, "dist.spawned_workers")), "count");
    metric("dist.net.leases", static_cast<double>(get(td, "dist.net.leases")), "count");
    metric("dist.net.heartbeats", static_cast<double>(get(td, "dist.net.heartbeats")), "count");
    metric("dist.retries", static_cast<double>(get(td, "dist.retries")), "count");
    std::uint64_t requeued = 0;
    for (const auto& s : traced.summaries) requeued += s.requeued_blocks;
    metric("dist.useful_block_ratio", blocks / (blocks + static_cast<double>(requeued)), "ratio");
    metric("store.ingest_ms_per_round", store_ingest_ms_per_round, "ms");
    metric("store.finalize_ms", store_finalize_ms, "ms");
    metric("store.log_bytes_per_block", log_bytes_per_block, "B");
    metric("dist.checkpoint_bytes_per_block", ckpt_bytes_per_block, "B");
    metric("obs.trace_overhead_pct", 100.0 * (qps_base - qps_traced) / qps_base, "%");

    obs::enable_tracing(false);
    std::ofstream trace{trace_path};
    trace << obs::chrome_trace_json("perfbench " + w.name);
    std::fprintf(stderr, "perfbench: Chrome trace written to %s\n", trace_path.c_str());
    return out;
}

}  // namespace perfbench
