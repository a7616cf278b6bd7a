// The store format and query engine as units: log-line armor and round
// trips, block dedup order, filters, and aggregation recomputed from
// integer tallies matching the campaign's own finalized cells.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/wire.hpp"
#include "store/format.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "util/json.hpp"

namespace pssp {
namespace {

std::string fresh_dir(const char* tag) {
    static int serial = 0;
    return ::testing::TempDir() + "pssp-query-" + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(serial++);
}

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay,
                    attack::attack_kind::brute_force};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 8;
    spec.master_seed = 91;
    spec.query_budget = 512;
    return spec;
}

dist::partial_block sample_block(std::uint64_t index, std::uint64_t cell) {
    dist::partial_block b;
    b.index = index;
    b.cell = cell;
    b.partial.trials = 8;
    b.partial.hijacks = 3;
    b.partial.detections = 5;
    b.partial.canary_detections = 4;
    b.partial.other_crashes = 1;
    b.partial.queries.add(17.0);
    b.partial.queries.add(0.125);  // exactly representable and not round
    b.partial.queries_to_compromise.add(3.0);
    b.partial.leaked_bytes_valid.add(7.0);
    return b;
}

obs::round_summary sample_summary(std::uint64_t round) {
    obs::round_summary s;
    s.round = round;
    s.blocks = 4;
    s.trials = 32;
    s.cumulative_trials = 32 * round;
    s.max_halfwidth = 0.123456789;  // exercises the %.6f wire rounding
    s.widest_cell = "nginx_m/SSP/leak_replay";
    s.wall_seconds = 1.5;
    s.shards = {{0, 0.75, 0.5, 0.25, {}}, {1, 0.8, 0.6, 0.2, {}}};
    s.retries = 2;
    s.requeued_blocks = 3;
    s.timeouts = 1;
    s.resumed = true;
    return s;
}

// A summary as the store's log holds it: round-tripped through the wire
// formatting once.
obs::round_summary wire_decoded(const obs::round_summary& s) {
    return store::round_summary_from_json(
        util::parse_json(obs::round_summary_json(s)));
}

TEST(store_format, log_line_round_trips_every_entry_kind) {
    const auto blocks_entry = store::log_entry::make_blocks(
        7, 3, std::vector<dist::partial_block>{sample_block(1, 0),
                                               sample_block(2, 1)});
    const auto round_entry = store::log_entry::make_round(8, sample_summary(3));
    const auto metrics_entry =
        store::log_entry::make_metrics(9, "{\"vm.steps\": 12}");
    const auto complete_entry = store::log_entry::make_complete(10, 3, 0xabcd);

    for (const auto* entry :
         {&blocks_entry, &round_entry, &metrics_entry, &complete_entry}) {
        const auto line = store::encode_log_line(*entry);
        ASSERT_FALSE(line.empty());
        ASSERT_EQ(line.back(), '\n');
        const auto decoded = store::decode_log_line(
            "test.log", 1, std::string_view{line}.substr(0, line.size() - 1));
        EXPECT_EQ(decoded.kind, entry->kind);
        EXPECT_EQ(decoded.seq, entry->seq);
    }

    // Blocks round-trip hexfloat-exact.
    const auto line = store::encode_log_line(blocks_entry);
    const auto decoded = store::decode_log_line(
        "test.log", 1, std::string_view{line}.substr(0, line.size() - 1));
    ASSERT_EQ(decoded.blocks.size(), 2u);
    EXPECT_EQ(decoded.round, 3u);
    EXPECT_EQ(decoded.blocks[0].index, 1u);
    EXPECT_EQ(decoded.blocks[0].partial.queries.save().mean,
              blocks_entry.blocks[0].partial.queries.save().mean);
    EXPECT_EQ(decoded.blocks[0].partial.queries.save().m2,
              blocks_entry.blocks[0].partial.queries.save().m2);

    // Metrics documents are preserved verbatim.
    const auto mline = store::encode_log_line(metrics_entry);
    const auto mdec = store::decode_log_line(
        "test.log", 1, std::string_view{mline}.substr(0, mline.size() - 1));
    EXPECT_EQ(mdec.metrics, "{\"vm.steps\": 12}");

    // Completion carries the report hash.
    const auto cline = store::encode_log_line(complete_entry);
    const auto cdec = store::decode_log_line(
        "test.log", 1, std::string_view{cline}.substr(0, cline.size() - 1));
    EXPECT_EQ(cdec.done.rounds, 3u);
    EXPECT_EQ(cdec.done.report_fnv, 0xabcdu);
}

TEST(store_format, corrupt_log_line_fails_with_position) {
    const auto entry = store::log_entry::make_complete(1, 2, 3);
    auto line = store::encode_log_line(entry);
    line.pop_back();  // strip newline for decode
    // Flip one body byte: the armor hash must catch it.
    auto tampered = line;
    tampered[10] = tampered[10] == '1' ? '2' : '1';
    try {
        (void)store::decode_log_line("ingest.log", 42, tampered);
        FAIL() << "expected an integrity failure";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ingest.log"), std::string::npos) << what;
        EXPECT_NE(what.find("42"), std::string::npos) << what;
    }
}

TEST(store_format, round_summary_survives_wire_round_trip) {
    const auto original = sample_summary(5);
    const auto decoded = wire_decoded(original);
    EXPECT_EQ(decoded.round, original.round);
    EXPECT_EQ(decoded.blocks, original.blocks);
    EXPECT_EQ(decoded.trials, original.trials);
    EXPECT_EQ(decoded.cumulative_trials, original.cumulative_trials);
    EXPECT_EQ(decoded.widest_cell, original.widest_cell);
    ASSERT_EQ(decoded.shards.size(), 2u);
    EXPECT_EQ(decoded.shards[1].shard, 1u);
    EXPECT_EQ(decoded.retries, original.retries);
    EXPECT_EQ(decoded.requeued_blocks, original.requeued_blocks);
    EXPECT_EQ(decoded.timeouts, original.timeouts);
    EXPECT_TRUE(decoded.resumed);
    // A second trip is a fixed point: the stored form re-encodes to the
    // identical line.
    EXPECT_EQ(obs::round_summary_json(decoded),
              obs::round_summary_json(wire_decoded(decoded)));
}

TEST(store_query, dedup_keeps_lowest_seq_per_block_index) {
    store::store_data data;
    data.meta.spec = small_spec();
    data.blocks.push_back({5, 2, sample_block(0, 0)});
    data.blocks.push_back({1, 1, sample_block(0, 0)});  // earlier delivery
    data.blocks.push_back({2, 1, sample_block(1, 1)});
    const auto rows = store::dedup_blocks(data);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].block.index, 0u);
    EXPECT_EQ(rows[0].seq, 1u);  // lowest seq won
    EXPECT_EQ(rows[1].block.index, 1u);
}

TEST(store_query, filters_parse_names_and_reject_unknowns) {
    store::query_filter filter;
    store::add_scheme(filter, "SSP");
    store::add_attack(filter, "leak_replay");
    store::add_target(filter, "nginx_m");
    EXPECT_EQ(filter.schemes.size(), 1u);
    EXPECT_THROW(store::add_scheme(filter, "definitely-not-a-scheme"),
                 std::invalid_argument);
    EXPECT_THROW(store::add_attack(filter, "nope"), std::invalid_argument);
    EXPECT_THROW(store::add_target(filter, "nope"), std::invalid_argument);
}

// A real end-to-end store for the aggregate tests: the in-process engine
// report is the truth the store-computed aggregate must match.
struct stored_campaign {
    std::string dir;
    campaign::campaign_report report;
    store::store_data data;
};

stored_campaign make_store(const campaign::campaign_spec& spec,
                           const char* tag) {
    stored_campaign out;
    out.dir = fresh_dir(tag);
    campaign::engine engine{spec};
    out.report = engine.run();
    auto writer = store::store_writer::open(out.dir, spec, false);
    // Feed the store the same per-block partials a shard worker would
    // hand the orchestrator: run_blocks over the canonical block list
    // (victims are cached from the run() above).
    const auto canonical = campaign::blocks_for(spec);
    const auto partials = engine.run_blocks(canonical);
    std::vector<dist::partial_block> blocks;
    for (std::size_t i = 0; i < canonical.size(); ++i) {
        dist::partial_block b;
        b.index = canonical[i].index;
        b.cell = canonical[i].cell;
        b.partial = partials[i];
        blocks.push_back(b);
    }
    writer.ingest_blocks(0, blocks);
    obs::round_summary s;
    s.round = 0;
    s.blocks = canonical.size();
    s.trials = out.report.total_trials();
    s.cumulative_trials = s.trials;
    writer.ingest_round(s);
    writer.finalize(out.report, "");
    out.data = store::load_store(out.dir);
    return out;
}

TEST(store_query, aggregate_matches_campaign_report) {
    const auto spec = small_spec();
    const auto sc = make_store(spec, "agg");
    const auto cells = store::aggregate_cells(sc.data, {});
    ASSERT_EQ(cells.size(), sc.report.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& got = cells[i].report;
        const auto& want = sc.report.cells[i];
        EXPECT_EQ(got.trials, want.trials);
        EXPECT_EQ(got.hijacks, want.hijacks);
        EXPECT_EQ(got.detections, want.detections);
        EXPECT_EQ(got.detection_rate, want.detection_rate);
        EXPECT_EQ(got.detection_ci.lo, want.detection_ci.lo);
        EXPECT_EQ(got.detection_ci.hi, want.detection_ci.hi);
        EXPECT_EQ(got.hijack_ci.lo, want.hijack_ci.lo);
        EXPECT_EQ(got.hijack_ci.hi, want.hijack_ci.hi);
    }
    EXPECT_EQ(store::reconstruct_report(sc.data).to_json(),
              sc.report.to_json());

    // Filters cut the aggregate down without touching the numbers.
    store::query_filter only_ssp;
    store::add_scheme(only_ssp, "SSP");
    const auto filtered = store::aggregate_cells(sc.data, only_ssp);
    ASSERT_GT(filtered.size(), 0u);
    ASSERT_LT(filtered.size(), cells.size());
    for (const auto& c : filtered)
        EXPECT_EQ(c.id.scheme, core::scheme_kind::ssp);

    // Renderers run over the same aggregates.
    EXPECT_NE(store::aggregate_table(cells).find("result store aggregate"),
              std::string::npos);
    const auto json = store::aggregate_json(sc.data, cells);
    EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
    (void)util::parse_json(json);  // must be well-formed

    // Cross-campaign join of the store with itself: every cell present in
    // both columns with identical numbers.
    const store::store_data stores[] = {sc.data, sc.data};
    const std::string names[] = {"a", "b"};
    const auto table = store::comparison_table(stores, names, {});
    EXPECT_NE(table.find("cross-campaign comparison"), std::string::npos);
    EXPECT_NE(table.find("a detection"), std::string::npos);
    EXPECT_NE(table.find("b detection"), std::string::npos);
}

TEST(store_query, reconstruct_rejects_foreign_blocks) {
    const auto spec = small_spec();
    const auto sc = make_store(spec, "foreign");
    auto data = sc.data;
    ASSERT_FALSE(data.blocks.empty());
    data.blocks[0].block.partial.trials += 1;  // no longer canonical
    EXPECT_THROW((void)store::reconstruct_report(data), std::runtime_error);
    auto data2 = sc.data;
    data2.blocks[0].block.index = 1u << 20;  // outside the block space
    EXPECT_THROW((void)store::reconstruct_report(data2), std::runtime_error);
}

}  // namespace
}  // namespace pssp
