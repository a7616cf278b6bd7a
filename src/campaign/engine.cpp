#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <chrono>

#include "campaign/allocator.hpp"
#include "core/tls_layout.hpp"
#include "crypto/prng.hpp"
#include "obs/span.hpp"

namespace pssp::campaign {

trial_seeds seeds_for_trial(std::uint64_t master_seed, std::uint64_t trial_index) {
    // splitmix64 over a per-trial state: the golden-ratio stride keeps
    // neighboring trials' states far apart, and splitmix's full-avalanche
    // output decorrelates the two streams from each other and from the raw
    // master seed. Purely a function of (master_seed, trial_index) — never
    // of which worker thread picked the trial up.
    std::uint64_t state = master_seed + 0x9e3779b97f4a7c15ull * (trial_index + 1);
    trial_seeds s;
    s.server = crypto::splitmix64_next(state);
    s.attacker = crypto::splitmix64_next(state);
    return s;
}

namespace {

struct cell_key {
    workload::target_kind target;
    core::scheme_kind scheme;
    attack::attack_kind attack;
    const workload::victim* victim = nullptr;
};

trial_result run_trial(const cell_key& cell, const campaign_spec& spec,
                       const trial_seeds& seeds) {
    // Pooled and fresh oracles are byte-identical for a given seed (the
    // master_pool contract), so this branch affects wall-clock only.
    std::optional<proc::master_pool::lease> lease;
    std::optional<proc::fork_server> fresh;
    if (spec.reuse_masters)
        lease.emplace(cell.victim->lease_server(seeds.server));
    else
        fresh.emplace(cell.victim->make_server(seeds.server));
    proc::fork_server& oracle = lease.has_value() ? lease->server() : *fresh;

    attack::attack_context ctx{
        .oracle = oracle,
        .scheme = cell.scheme,
        .prefix_bytes = cell.victim->prefix_bytes,
        .canary_bytes = cell.victim->canary_bytes,
        .ret_target = cell.victim->ret_target,
        .saved_rbp = cell.victim->saved_rbp,
        .seed = seeds.attacker,
        .query_budget = spec.query_budget,
        .true_canary_hint = 0,
        .unknown_bits = spec.brute_unknown_bits,
        .dcr_offset = 0,
    };
    if (cell.attack == attack::attack_kind::brute_force) {
        // The entropy-reduction harness (Section III-C-1): leak the top
        // bits of the booted master's true canary so the residual search
        // space is 2^unknown_bits and trials finish inside the budget.
        ctx.true_canary_hint = core::tls_load(oracle.master(), core::tls_canary);
    }

    const auto strategy = attack::make_strategy(cell.attack);
    const auto outcome = strategy->execute(ctx);

    return trial_result{
        .hijacked = outcome.hijacked,
        .detected = outcome.detected,
        .oracle_queries = outcome.oracle_queries,
        .canary_detections = outcome.canary_detections,
        .other_crashes = outcome.other_crashes,
        .leaked_bytes_valid = outcome.leaked_bytes_valid,
    };
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

engine::engine(campaign_spec spec) : spec_{std::move(spec)} {
    if (spec_.schemes.empty() || spec_.attacks.empty() || spec_.targets.empty())
        throw std::invalid_argument{
            "campaign::engine: spec needs >= 1 scheme, attack and target"};
    if (spec_.trials_per_cell == 0)
        throw std::invalid_argument{"campaign::engine: trials_per_cell == 0"};
    (void)adaptive_allocator{spec_};  // rejects bad allocation knobs up front
    // DCR's brute-force model needs the victim's true link offset in the
    // low canary half; no static victim property supplies it, and running
    // with a wrong offset reports a hijack rate of 0 that is
    // indistinguishable from genuine prevention. Refuse to measure garbage.
    const bool has_brute =
        std::find(spec_.attacks.begin(), spec_.attacks.end(),
                  attack::attack_kind::brute_force) != spec_.attacks.end();
    const bool has_dcr = std::find(spec_.schemes.begin(), spec_.schemes.end(),
                                   core::scheme_kind::dcr) != spec_.schemes.end();
    if (has_brute && has_dcr)
        throw std::invalid_argument{
            "campaign::engine: brute_force x dcr needs the per-victim link "
            "offset, which campaigns do not model yet"};
}

campaign_report engine::run() {
    // The round loop: plan -> execute -> record until the allocator has
    // nothing left to plan — one all-blocks round 0 for a fixed campaign,
    // rounds 1..N for an adaptive one. The allocator's decisions are pure
    // functions of the merged partials, and run_blocks partials are pure
    // functions of (master_seed, block), so this loop reproduces the dist
    // orchestrator's sharded round loop byte for byte.
    adaptive_allocator allocator{spec_};
    for (;;) {
        const auto round = allocator.plan_round();
        if (round.empty()) break;
        const std::uint64_t number = allocator.round_number();
        obs::span sp{"campaign.round", "campaign",
                     static_cast<std::int64_t>(number)};
        const auto start = std::chrono::steady_clock::now();
        const auto partials = run_blocks(round);
        allocator.record_round(round, partials);
        if (round_observer_) {
            auto summary = allocator.summarize_round(number, round);
            summary.wall_seconds = seconds_since(start);
            round_observer_(summary);
        }
    }
    return allocator.report();
}

std::vector<cell_partial> engine::run_blocks(std::span<const block_ref> blocks) {
    const auto ids = cells_for(spec_);
    const std::size_t n_attacks = spec_.attacks.size();
    for (const auto& b : blocks)
        if (b.cell >= ids.size())
            throw std::invalid_argument{
                "campaign::engine: block cell index out of range"};

    const unsigned jobs = static_cast<unsigned>(std::min<std::uint64_t>(
        resolve_jobs(spec_.jobs), std::max<std::uint64_t>(blocks.size(), 1)));

    // One victim build per (target, scheme), but only for the pairs these
    // blocks actually touch — a shard owning 3 of 18 blocks must not pay
    // for 6 compiles. Attacks within a cell share the build, and the cache
    // is an engine member so an adaptive round loop pays each compile once.
    victims_.resize(spec_.targets.size() * spec_.schemes.size());
    std::vector<cell_key> cells(ids.size());
    for (const auto& b : blocks) {
        const std::size_t vi = b.cell / n_attacks;
        if (!victims_[vi].has_value()) {
            obs::span sp{"victim.build", "campaign",
                         static_cast<std::int64_t>(vi)};
            victims_[vi].emplace(workload::make_victim(
                ids[b.cell].target, ids[b.cell].scheme, spec_.scheme_options));
            // Per-shard pool sizing: park at most one booted master per
            // worker thread. A lone process on a big machine keeps them
            // all; each process of a wide fan-out keeps only its share.
            victims_[vi]->pool->set_idle_limit(jobs);
        }
        cells[b.cell] = cell_key{ids[b.cell].target, ids[b.cell].scheme,
                                 ids[b.cell].attack, &*victims_[vi]};
    }

    std::uint64_t total = 0;
    for (const auto& b : blocks) total += b.trials;

    std::vector<cell_partial> partials(blocks.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> done{0};
    std::mutex error_mutex;
    std::string first_error;
    std::atomic<bool> failed{false};

    // Work-stealing at block granularity: one worker reduces a whole block
    // with sequential add()s in trial order, so the block's partial is a
    // pure function of (master_seed, block) — never of scheduling.
    auto worker = [&] {
        for (;;) {
            const std::size_t bi = next.fetch_add(1, std::memory_order_relaxed);
            if (bi >= blocks.size() || failed.load(std::memory_order_relaxed))
                return;
            const auto& block = blocks[bi];
            const auto& cell = cells[block.cell];
            // One span per trial batch (the canonical reduction block) —
            // a no-op when tracing is off, one ring write when on.
            obs::span sp{"block", "campaign",
                         static_cast<std::int64_t>(block.index)};
            for (std::uint64_t t = 0; t < block.trials; ++t) {
                const std::uint64_t g = block.first_trial + t;
                try {
                    partials[bi].add(run_trial(
                        cell, spec_, seeds_for_trial(spec_.master_seed, g)));
                } catch (const std::exception& e) {
                    std::lock_guard lock{error_mutex};
                    if (first_error.empty())
                        first_error = std::string{"trial "} + std::to_string(g) +
                                      ": " + e.what();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
                const std::uint64_t completed =
                    done.fetch_add(1, std::memory_order_relaxed) + 1;
                if (progress_) {
                    std::lock_guard lock{error_mutex};
                    progress_(completed, total);
                }
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
        for (auto& t : pool) t.join();
    }
    if (failed.load())
        throw std::runtime_error{"campaign::engine: " + first_error};
    return partials;
}

}  // namespace pssp::campaign
