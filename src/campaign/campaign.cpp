#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "util/json.hpp"
#include "util/table.hpp"

namespace pssp::campaign {

campaign_spec default_spec() {
    campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::raf_ssp,
                    core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::brute_force,
                    attack::attack_kind::byte_by_byte,
                    attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    return spec;
}

campaign_spec full_spec() {
    campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp,      core::scheme_kind::raf_ssp,
                    core::scheme_kind::dynaguard, core::scheme_kind::dcr,
                    core::scheme_kind::p_ssp,    core::scheme_kind::p_ssp_owf};
    // No brute_force: it needs DCR's per-victim link offset (see the
    // engine's constructor check).
    spec.attacks = {attack::attack_kind::byte_by_byte,
                    attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    return spec;
}

unsigned resolve_jobs(unsigned requested) noexcept {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

void cell_partial::add(const trial_result& t) {
    ++trials;
    if (t.hijacked) {
        ++hijacks;
        queries_to_compromise.add(static_cast<double>(t.oracle_queries));
    }
    if (t.detected) ++detections;
    queries.add(static_cast<double>(t.oracle_queries));
    leaked_bytes_valid.add(static_cast<double>(t.leaked_bytes_valid));
    canary_detections += t.canary_detections;
    other_crashes += t.other_crashes;
}

void cell_partial::merge(const cell_partial& other) {
    trials += other.trials;
    hijacks += other.hijacks;
    detections += other.detections;
    canary_detections += other.canary_detections;
    other_crashes += other.other_crashes;
    queries.merge(other.queries);
    queries_to_compromise.merge(other.queries_to_compromise);
    leaked_bytes_valid.merge(other.leaked_bytes_valid);
}

std::vector<cell_id> cells_for(const campaign_spec& spec) {
    std::vector<cell_id> cells;
    cells.reserve(spec.cell_count());
    for (const auto target : spec.targets)
        for (const auto scheme : spec.schemes)
            for (const auto atk : spec.attacks)
                cells.push_back(cell_id{target, scheme, atk});
    return cells;
}

std::string cell_name(const cell_id& id) {
    return workload::to_string(id.target) + "/" + core::to_string(id.scheme) +
           "/" + attack::to_string(id.attack);
}

std::vector<block_ref> blocks_for(const campaign_spec& spec) {
    const std::uint64_t cell_count = spec.cell_count();
    const std::uint64_t per_cell =
        (spec.trials_per_cell + reduce_block_trials - 1) / reduce_block_trials;
    std::vector<block_ref> blocks;
    blocks.reserve(cell_count * per_cell);
    for (std::uint64_t cell = 0; cell < cell_count; ++cell) {
        for (std::uint64_t b = 0; b < per_cell; ++b) {
            const std::uint64_t offset = b * reduce_block_trials;
            blocks.push_back(block_ref{
                .index = blocks.size(),
                .cell = cell,
                .first_trial = cell * spec.trials_per_cell + offset,
                .trials = std::min(reduce_block_trials,
                                   spec.trials_per_cell - offset),
            });
        }
    }
    return blocks;
}

cell_report finalize_cell(const cell_id& id, const cell_partial& merged) {
    cell_report cell;
    cell.scheme = id.scheme;
    cell.attack = id.attack;
    cell.target = id.target;
    cell.trials = merged.trials;
    cell.hijacks = merged.hijacks;
    cell.detections = merged.detections;
    cell.canary_detections = merged.canary_detections;
    cell.other_crashes = merged.other_crashes;
    cell.queries = merged.queries;
    cell.queries_to_compromise = merged.queries_to_compromise;
    cell.leaked_bytes_valid = merged.leaked_bytes_valid;
    if (cell.trials > 0) {
        cell.hijack_rate =
            static_cast<double>(cell.hijacks) / static_cast<double>(cell.trials);
        cell.detection_rate =
            static_cast<double>(cell.detections) / static_cast<double>(cell.trials);
    }
    cell.hijack_ci = util::wilson_interval(cell.hijacks, cell.trials);
    cell.detection_ci = util::wilson_interval(cell.detections, cell.trials);
    return cell;
}

campaign_report assemble_report(const campaign_spec& spec,
                                std::span<const block_ref> blocks,
                                std::span<const cell_partial> partials) {
    if (blocks.size() != partials.size())
        throw std::invalid_argument{
            "assemble_report: one partial per block required"};
    const auto cells = cells_for(spec);
    std::vector<cell_partial> merged(cells.size());
    // blocks is in canonical order, so within each cell the merge happens
    // in block order — the float-determinism invariant.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (blocks[b].cell >= cells.size())
            throw std::invalid_argument{"assemble_report: block cell out of range"};
        merged[blocks[b].cell].merge(partials[b]);
    }
    campaign_report report;
    report.spec = spec;
    report.cells.reserve(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c)
        report.cells.push_back(finalize_cell(cells[c], merged[c]));
    return report;
}

cell_report reduce_cell(core::scheme_kind scheme, attack::attack_kind attack,
                        workload::target_kind target,
                        std::span<const trial_result> trials) {
    cell_partial cell;
    for (std::size_t start = 0; start < trials.size();
         start += reduce_block_trials) {
        const std::size_t n = std::min<std::size_t>(
            reduce_block_trials, trials.size() - start);
        cell_partial block;
        for (std::size_t i = 0; i < n; ++i) block.add(trials[start + i]);
        cell.merge(block);
    }
    return finalize_cell(cell_id{target, scheme, attack}, cell);
}

std::string campaign_report::to_json() const {
    std::string out;
    out.reserve(1024 + cells.size() * 512);
    out += "{\"campaign\":{";
    util::append_kv(out, "master_seed", spec.master_seed);
    util::append_kv(out, "trials_per_cell", spec.trials_per_cell);
    util::append_kv(out, "query_budget", spec.query_budget);
    util::append_kv(out, "brute_unknown_bits",
                    static_cast<std::uint64_t>(spec.brute_unknown_bits));
    // The adaptive knobs are outcome-relevant (they decide which trials
    // ran), so the report records them — unlike jobs/reuse_masters, which
    // stay absent by design.
    util::append_kv_bool(out, "adaptive", spec.adaptive);
    util::append_kv(out, "target_ci_halfwidth", spec.target_ci_halfwidth);
    util::append_kv(out, "round_blocks", spec.round_blocks);
    util::append_kv(out, "min_trials_per_cell", spec.min_trials_per_cell,
                    /*comma=*/false);
    out += "},\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cells[i];
        if (i) out += ',';
        out += '{';
        util::append_kv(out, "target", workload::to_string(c.target));
        util::append_kv(out, "scheme", core::to_string(c.scheme));
        util::append_kv(out, "attack", attack::to_string(c.attack));
        util::append_kv(out, "trials", c.trials);
        util::append_kv(out, "hijacks", c.hijacks);
        util::append_kv(out, "detections", c.detections);
        util::append_kv(out, "hijack_rate", c.hijack_rate);
        util::append_interval(out, "hijack_ci95", c.hijack_ci);
        util::append_kv(out, "detection_rate", c.detection_rate);
        util::append_interval(out, "detection_ci95", c.detection_ci);
        util::append_accumulator(out, "oracle_queries", c.queries);
        util::append_accumulator(out, "queries_to_compromise",
                                 c.queries_to_compromise);
        util::append_accumulator(out, "leaked_bytes_valid", c.leaked_bytes_valid);
        util::append_kv(out, "canary_detections", c.canary_detections);
        util::append_kv(out, "other_crashes", c.other_crashes, /*comma=*/false);
        out += '}';
    }
    out += "]}";
    return out;
}

std::string campaign_report::to_table() const {
    util::text_table t{{"target", "scheme", "attack", "hijack rate",
                        "detect rate [95% CI]", "mean queries",
                        "mean q-to-compromise", "leak bytes valid"}};
    char buf[96];
    for (const auto& c : cells) {
        std::snprintf(buf, sizeof buf, "%.3f", c.hijack_rate);
        std::string hijack = buf;
        std::snprintf(buf, sizeof buf, "%.3f [%.3f, %.3f]", c.detection_rate,
                      c.detection_ci.lo, c.detection_ci.hi);
        std::string detect = buf;
        std::snprintf(buf, sizeof buf, "%.1f", c.queries.mean());
        std::string queries = buf;
        std::string compromise = "-";
        if (c.queries_to_compromise.count() > 0) {
            std::snprintf(buf, sizeof buf, "%.1f", c.queries_to_compromise.mean());
            compromise = buf;
        }
        std::snprintf(buf, sizeof buf, "%.2f", c.leaked_bytes_valid.mean());
        std::string leak = buf;
        t.add_row({workload::to_string(c.target), core::to_string(c.scheme),
                   attack::to_string(c.attack), hijack, detect, queries,
                   compromise, leak});
    }
    return t.render("Campaign outcome matrix");
}

}  // namespace pssp::campaign
