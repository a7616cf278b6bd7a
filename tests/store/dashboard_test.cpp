// The dashboard export is a self-contained HTML file whose numbers are
// all computed in C++ and embedded as one JSON payload; the page's JS
// only draws. This test extracts that payload and checks it is
// well-formed and carries the store's aggregates faithfully — the chart
// can only be as wrong as the payload, and the payload is testable.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.hpp"
#include "store/dashboard.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "util/json.hpp"

namespace pssp {
namespace {

std::string fresh_dir(const char* tag) {
    static int serial = 0;
    return ::testing::TempDir() + "pssp-dash-" + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(serial++);
}

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    // 192 trials = three canonical 64-trial blocks per cell: three
    // ingest rounds' worth of hand-built partials.
    spec.trials_per_cell = 192;
    spec.master_seed = 71;
    spec.query_budget = 512;
    spec.adaptive = true;
    return spec;
}

// A three-round store with hand-built partials: enough structure for a
// convergence curve (>= 2 rounds) and a populated timeline.
std::string build_store(const campaign::campaign_spec& spec) {
    const auto dir = fresh_dir("store");
    auto writer = store::store_writer::open(dir, spec, false);
    const auto canonical = campaign::blocks_for(spec);
    const std::size_t per_round = (canonical.size() + 2) / 3;
    std::size_t next = 0;
    for (std::uint64_t round = 1; round <= 3 && next < canonical.size();
         ++round) {
        std::vector<dist::partial_block> blocks;
        std::uint64_t trials = 0;
        for (std::size_t i = 0; i < per_round && next < canonical.size();
             ++i, ++next) {
            const auto& ref = canonical[next];
            dist::partial_block b;
            b.index = ref.index;
            b.cell = ref.cell;
            b.partial.trials = ref.trials;
            b.partial.detections = ref.trials / 2;
            b.partial.hijacks = ref.trials / 4;
            trials += ref.trials;
            blocks.push_back(b);
        }
        writer.ingest_blocks(round, blocks);
        obs::round_summary s;
        s.round = round;
        s.blocks = blocks.size();
        s.trials = trials;
        s.cumulative_trials = trials * round;
        s.max_halfwidth = 0.5 / static_cast<double>(round);
        s.widest_cell = "nginx_m/SSP/leak_replay";
        s.retries = round == 2 ? 1 : 0;
        writer.ingest_round(s);
    }
    return dir;
}

std::string payload_of(const std::string& html) {
    const std::string open = "<script id=\"pssp-data\" "
                             "type=\"application/json\">";
    const auto start = html.find(open);
    EXPECT_NE(start, std::string::npos);
    const auto end = html.find("</script>", start);
    EXPECT_NE(end, std::string::npos);
    return html.substr(start + open.size(), end - start - open.size());
}

TEST(store_dashboard, payload_carries_the_store_aggregates) {
    const auto spec = small_spec();
    const auto dir = build_store(spec);
    const auto data = store::load_store(dir);
    const auto html = store::render_dashboard(data);

    const auto doc = util::parse_json(payload_of(html));
    const auto& meta = doc.at("meta");
    EXPECT_FALSE(meta.at("complete").as_bool());
    EXPECT_TRUE(meta.at("adaptive").as_bool());
    EXPECT_EQ(meta.at("rounds").as_u64(), 3u);
    EXPECT_FALSE(meta.at("dropped_torn_tail").as_bool());
    EXPECT_EQ(meta.find("repaired_segments"), nullptr);

    // Cells mirror the query engine's aggregates, number for number.
    const auto cells = store::aggregate_cells(data, {});
    const auto& payload_cells = doc.at("cells").elements();
    ASSERT_EQ(payload_cells.size(), cells.size());
    std::uint64_t trials = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(payload_cells[i].at("name").as_string(),
                  store::cell_name(cells[i].id));
        EXPECT_EQ(payload_cells[i].at("trials").as_u64(),
                  cells[i].report.trials);
        EXPECT_EQ(payload_cells[i].at("detections").as_u64(),
                  cells[i].report.detections);
        trials += cells[i].report.trials;
    }
    EXPECT_EQ(meta.at("trials").as_u64(), trials);

    // Convergence: three adaptive rounds, every series curve padded to
    // the same length as the round axis.
    const auto& conv = doc.at("convergence");
    ASSERT_EQ(conv.at("rounds").elements().size(), 3u);
    const auto& series = conv.at("series").elements();
    ASSERT_GT(series.size(), 0u);
    ASSERT_LE(series.size(), 8u);  // the categorical fold cap
    for (const auto& s : series)
        EXPECT_EQ(s.at("hw").elements().size(), 3u) << s.at("name").as_string();

    // Timeline rows carry the recovery provenance.
    const auto& timeline = doc.at("timeline").elements();
    ASSERT_EQ(timeline.size(), 3u);
    EXPECT_EQ(timeline[1].at("retries").as_u64(), 1u);
    EXPECT_EQ(timeline[0].at("retries").as_u64(), 0u);
}

TEST(store_dashboard, html_is_self_contained_and_theme_aware) {
    const auto spec = small_spec();
    const auto dir = build_store(spec);
    const auto html = store::render_dashboard(store::load_store(dir));

    EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
    // No external fetches: a file:// open must render fully. (The SVG
    // xmlns URI is a namespace name, not a fetch.)
    EXPECT_EQ(html.find("<link"), std::string::npos);
    EXPECT_EQ(html.find("fetch("), std::string::npos);
    EXPECT_EQ(html.find("<script src"), std::string::npos);
    // Dark mode is a selected palette, not an automatic flip.
    EXPECT_NE(html.find("prefers-color-scheme: dark"), std::string::npos);
    EXPECT_NE(html.find("data-theme=\"dark\""), std::string::npos);

    // A fixed-allocation (single round-0) store renders too — with the
    // convergence chart explicitly absent rather than broken.
    auto fixed = spec;
    fixed.adaptive = false;
    const auto fdir = fresh_dir("fixed");
    {
        auto writer = store::store_writer::open(fdir, fixed, false);
        obs::round_summary s;
        writer.ingest_round(s);
    }
    const auto fixed_html = store::render_dashboard(store::load_store(fdir));
    const auto doc = util::parse_json(payload_of(fixed_html));
    EXPECT_EQ(doc.at("convergence").at("series").elements().size(), 0u);
}

}  // namespace
}  // namespace pssp
