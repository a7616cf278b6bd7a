#include "store/query.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"
#include "util/table.hpp"

namespace pssp::store {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error{"store: " + what};
}

template <class T>
bool axis_matches(const std::vector<T>& allowed, T value) {
    if (allowed.empty()) return true;
    return std::find(allowed.begin(), allowed.end(), value) != allowed.end();
}

std::string fmt_rate_ci(double rate, const util::interval& ci) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f [%.4f,%.4f]", rate, ci.lo, ci.hi);
    return buf;
}

}  // namespace

bool query_filter::matches(const campaign::cell_id& id) const {
    return axis_matches(schemes, id.scheme) && axis_matches(attacks, id.attack) &&
           axis_matches(targets, id.target);
}

void add_scheme(query_filter& filter, const std::string& name) {
    filter.schemes.push_back(core::scheme_kind_from_string(name));
}

void add_attack(query_filter& filter, const std::string& name) {
    filter.attacks.push_back(attack::attack_kind_from_string(name));
}

void add_target(query_filter& filter, const std::string& name) {
    filter.targets.push_back(workload::target_kind_from_string(name));
}

std::vector<block_row> dedup_blocks(const store_data& data) {
    // Lowest ingest seq wins; later copies of a block index are replay
    // echoes of the identical value (and the writer skips them anyway).
    std::unordered_map<std::uint64_t, const block_row*> best;
    best.reserve(data.blocks.size());
    for (const auto& r : data.blocks) {
        auto [it, inserted] = best.try_emplace(r.block.index, &r);
        if (!inserted && r.seq < it->second->seq) it->second = &r;
    }
    std::vector<block_row> rows;
    rows.reserve(best.size());
    for (const auto& [index, row] : best) rows.push_back(*row);
    std::sort(rows.begin(), rows.end(),
              [](const block_row& a, const block_row& b) {
                  return a.block.index < b.block.index;
              });
    return rows;
}

std::vector<cell_aggregate> aggregate_cells(const store_data& data,
                                            const query_filter& filter) {
    const auto ids = campaign::cells_for(data.meta.spec);
    const auto rows = dedup_blocks(data);

    struct bucket {
        campaign::cell_partial merged;
        std::uint64_t block_rows = 0;
        std::uint64_t first_round = 0;
        std::uint64_t last_round = 0;
    };
    std::map<std::uint64_t, bucket> buckets;  // cell index, canonical order
    for (const auto& r : rows) {
        if (r.round < filter.min_round || r.round > filter.max_round) continue;
        if (r.block.cell >= ids.size())
            fail(data.directory + ": block " + std::to_string(r.block.index) +
                 " names cell " + std::to_string(r.block.cell) +
                 " outside the campaign's cell space");
        if (!filter.matches(ids[r.block.cell])) continue;
        auto& b = buckets[r.block.cell];
        if (b.block_rows == 0) {
            b.first_round = r.round;
            b.last_round = r.round;
        } else {
            b.first_round = std::min(b.first_round, r.round);
            b.last_round = std::max(b.last_round, r.round);
        }
        // Rows arrive ascending block index — the canonical merge order.
        b.merged.merge(r.block.partial);
        b.block_rows += 1;
    }

    std::vector<cell_aggregate> out;
    out.reserve(buckets.size());
    for (const auto& [cell, b] : buckets) {
        cell_aggregate agg;
        agg.cell = cell;
        agg.id = ids[cell];
        agg.report = campaign::finalize_cell(ids[cell], b.merged);
        agg.block_rows = b.block_rows;
        agg.first_round = b.first_round;
        agg.last_round = b.last_round;
        out.push_back(std::move(agg));
    }
    return out;
}

campaign::campaign_report reconstruct_report(const store_data& data) {
    const auto& spec = data.meta.spec;
    const auto canonical = campaign::blocks_for(spec);
    const auto rows = dedup_blocks(data);

    std::vector<campaign::block_ref> refs;
    std::vector<campaign::cell_partial> partials;
    refs.reserve(rows.size());
    partials.reserve(rows.size());
    for (const auto& r : rows) {
        if (r.block.index >= canonical.size())
            fail(data.directory + ": block " + std::to_string(r.block.index) +
                 " does not exist in this campaign's block space");
        const auto& ref = canonical[r.block.index];
        if (r.block.cell != ref.cell || r.block.partial.trials != ref.trials)
            fail(data.directory + ": block " + std::to_string(r.block.index) +
                 " disagrees with the canonical block space — the store "
                 "belongs to a different campaign");
        refs.push_back(ref);
        partials.push_back(r.block.partial);
    }
    // Adaptive executed blocks are always per-cell prefixes of the
    // canonical space, and refs are ascending by index — exactly the
    // reduction the allocator's report() performs.
    return campaign::assemble_report(spec, refs, partials);
}

std::string aggregate_table(std::span<const cell_aggregate> cells) {
    util::text_table table{{"target/scheme/attack", "trials", "hijacks",
                            "detections", "detection [95% CI]",
                            "hijack [95% CI]", "blocks", "rounds"}};
    for (const auto& c : cells) {
        const std::string rounds =
            c.first_round == c.last_round
                ? std::to_string(c.first_round)
                : std::to_string(c.first_round) + "-" +
                      std::to_string(c.last_round);
        table.add_row({cell_name(c.id), std::to_string(c.report.trials),
                       std::to_string(c.report.hijacks),
                       std::to_string(c.report.detections),
                       fmt_rate_ci(c.report.detection_rate,
                                   c.report.detection_ci),
                       fmt_rate_ci(c.report.hijack_rate, c.report.hijack_ci),
                       std::to_string(c.block_rows), rounds});
    }
    return table.render("result store aggregate");
}

std::string aggregate_json(const store_data& data,
                           std::span<const cell_aggregate> cells) {
    std::string out = "{\"aggregate\":{";
    util::append_kv(out, "spec_digest", data.meta.spec_digest);
    util::append_kv_bool(out, "complete", data.complete);
    std::uint64_t trials = 0;
    for (const auto& c : cells) trials += c.report.trials;
    util::append_kv(out, "trials", trials);
    out += "\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cells[i];
        if (i > 0) out += ',';
        out += '{';
        util::append_kv(out, "target",
                        std::string{workload::to_string(c.id.target)});
        util::append_kv(out, "scheme", std::string{core::to_string(c.id.scheme)});
        util::append_kv(out, "attack",
                        std::string{attack::to_string(c.id.attack)});
        util::append_kv(out, "trials", c.report.trials);
        util::append_kv(out, "hijacks", c.report.hijacks);
        util::append_kv(out, "detections", c.report.detections);
        util::append_kv(out, "hijack_rate", c.report.hijack_rate);
        util::append_interval(out, "hijack_ci95", c.report.hijack_ci);
        util::append_kv(out, "detection_rate", c.report.detection_rate);
        util::append_interval(out, "detection_ci95", c.report.detection_ci);
        util::append_accumulator(out, "oracle_queries", c.report.queries);
        util::append_kv(out, "canary_detections", c.report.canary_detections);
        util::append_kv(out, "other_crashes", c.report.other_crashes);
        util::append_kv(out, "block_rows", c.block_rows);
        util::append_kv(out, "first_round", c.first_round);
        util::append_kv(out, "last_round", c.last_round, /*comma=*/false);
        out += '}';
    }
    out += "]}}";
    return out;
}

std::string comparison_table(std::span<const store_data> stores,
                             std::span<const std::string> names,
                             const query_filter& filter) {
    if (stores.size() != names.size())
        throw std::invalid_argument{
            "comparison_table: one name per store required"};

    // Cell key -> per-store aggregate. Keys keep first-appearance order
    // (store 0's canonical order, then later stores' extras).
    std::vector<std::string> order;
    std::map<std::string, std::vector<const cell_aggregate*>> by_name;
    std::vector<std::vector<cell_aggregate>> all;
    all.reserve(stores.size());
    for (const auto& s : stores) all.push_back(aggregate_cells(s, filter));
    for (std::size_t i = 0; i < all.size(); ++i) {
        for (const auto& c : all[i]) {
            auto [it, inserted] =
                by_name.try_emplace(cell_name(c.id),
                                    std::vector<const cell_aggregate*>(
                                        stores.size(), nullptr));
            if (inserted) order.push_back(it->first);
            it->second[i] = &c;
        }
    }

    std::vector<std::string> header{"target/scheme/attack"};
    for (const auto& n : names) {
        header.push_back(n + " detection");
        header.push_back(n + " hijack");
        header.push_back(n + " trials");
    }
    util::text_table table{std::move(header)};
    for (const auto& key : order) {
        std::vector<std::string> row{key};
        for (const auto* agg : by_name.at(key)) {
            if (agg == nullptr) {
                row.insert(row.end(), {"-", "-", "-"});
                continue;
            }
            row.push_back(fmt_rate_ci(agg->report.detection_rate,
                                      agg->report.detection_ci));
            row.push_back(
                fmt_rate_ci(agg->report.hijack_rate, agg->report.hijack_ci));
            row.push_back(std::to_string(agg->report.trials));
        }
        table.add_row(std::move(row));
    }
    return table.render("cross-campaign comparison");
}

}  // namespace pssp::store
