// Store damage drills. The ingest log is the store, so every recovery
// path has a binary outcome: a torn final line is dropped (and cut before
// the next append), and any other damage fails the load loudly, naming
// the file and line. Nothing in between, nothing papered over.

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "util/bytes.hpp"
#include "util/fsio.hpp"

namespace pssp {
namespace {

std::string fresh_dir(const char* tag) {
    static int serial = 0;
    return ::testing::TempDir() + "pssp-recover-" + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(serial++);
}

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    // 192 trials = three canonical 64-trial blocks per cell: enough
    // blocks for three rounds.
    spec.trials_per_cell = 192;
    spec.master_seed = 53;
    spec.query_budget = 512;
    return spec;
}

// Builds a three-round store: the canonical block list split into three
// chunks, each ingested as its round's accepted partials. Left
// unfinalized so the store looks like a live campaign.
void build_store(const std::string& dir, const campaign::campaign_spec& spec) {
    auto writer = store::store_writer::open(dir, spec, false);
    const auto canonical = campaign::blocks_for(spec);
    ASSERT_GE(canonical.size(), 3u);
    const std::size_t per_round = (canonical.size() + 2) / 3;
    std::size_t next = 0;
    for (std::uint64_t round = 1; round <= 3 && next < canonical.size();
         ++round) {
        std::vector<dist::partial_block> blocks;
        for (std::size_t i = 0; i < per_round && next < canonical.size();
             ++i, ++next) {
            const auto& ref = canonical[next];
            dist::partial_block b;
            b.index = ref.index;
            b.cell = ref.cell;
            b.partial.trials = ref.trials;
            b.partial.detections = ref.trials / 2;
            b.partial.queries.add(static_cast<double>(ref.index) + 0.5);
            blocks.push_back(b);
        }
        writer.ingest_blocks(round, blocks);
        obs::round_summary s;
        s.round = round;
        s.blocks = blocks.size();
        writer.ingest_round(s);
    }
}

std::string read_file_or_die(const std::string& path) {
    std::string bytes;
    if (!util::read_file(path, bytes)) ADD_FAILURE() << "cannot read " << path;
    return bytes;
}

void write_file_raw(const std::string& path, const std::string& bytes) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out) << "cannot write " << path;
    out << bytes;
}

TEST(store_recovery, torn_final_log_line_is_dropped_and_reported) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("torn-tail");
    build_store(dir, spec);

    const auto clean = store::load_store(dir);
    {
        // A killed single-write(2) appender leaves at most one state: a
        // final line with no newline.
        std::ofstream log{dir + "/ingest.log",
                          std::ios::binary | std::ios::app};
        ASSERT_TRUE(log);
        log << "{\"e\":{\"k\":\"blocks\",\"seq\":99";
    }
    const auto data = store::load_store(dir);
    EXPECT_TRUE(data.dropped_torn_tail);
    EXPECT_EQ(data.blocks.size(), clean.blocks.size());
    EXPECT_EQ(data.rounds.size(), clean.rounds.size());
    EXPECT_FALSE(clean.dropped_torn_tail);
}

TEST(store_recovery, resume_cuts_a_torn_tail_before_appending) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("torn-resume");
    build_store(dir, spec);
    {
        // A killed appender's torn final line.
        std::ofstream log{dir + "/ingest.log",
                          std::ios::binary | std::ios::app};
        ASSERT_TRUE(log);
        log << "{\"e\":{\"k\":\"round\",\"seq\":7";
    }
    ASSERT_TRUE(store::load_store(dir).dropped_torn_tail);

    {
        // The resumed writer must start its first entry on a fresh line,
        // not glue it onto the torn bytes.
        auto writer = store::store_writer::open(dir, spec, /*resume=*/true);
        obs::round_summary s;
        s.round = 4;
        writer.ingest_round(s);
    }
    const auto data = store::load_store(dir);
    EXPECT_FALSE(data.dropped_torn_tail);
    ASSERT_EQ(data.rounds.size(), 4u);
    EXPECT_EQ(data.rounds.back().summary.round, 4u);
    EXPECT_EQ(data.rounds.back().seq, 7u);
    EXPECT_EQ(data.next_seq, 8u);
}

TEST(store_recovery, corrupt_interior_log_line_fails_with_line_number) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("bad-line");
    build_store(dir, spec);

    const std::string log_path = dir + "/ingest.log";
    auto log = read_file_or_die(log_path);
    // Flip a byte inside the first line's body: integrity hash must trip.
    ASSERT_GT(log.find('\n'), 60u);
    log[50] = log[50] == 'x' ? 'y' : 'x';
    write_file_raw(log_path, log);

    try {
        (void)store::load_store(dir);
        FAIL() << "expected the corrupt log line to fail the load";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ingest.log"), std::string::npos) << what;
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    }
}

TEST(store_recovery, parent_format_store_loads_from_its_log) {
    // A store written before the log became the whole store: its manifest
    // carries a compaction frontier, a column-segment table and a
    // completion flag, and segment files sit next to the log. None of it
    // is read; the log alone answers, and the store still resumes.
    const auto spec = small_spec();
    const auto dir = fresh_dir("parent-format");
    build_store(dir, spec);
    const auto clean = store::load_store(dir);
    ASSERT_EQ(clean.rounds.size(), 3u);

    const std::string manifest_path = dir + "/store.json";
    auto manifest = read_file_or_die(manifest_path);
    const auto spec_at = manifest.find("\"spec\":");
    ASSERT_NE(spec_at, std::string::npos);
    const std::string last_seq = std::to_string(clean.next_seq - 1);
    manifest.insert(spec_at,
                    "\"compacted_seq\":" + last_seq + ",\"complete\":true,");
    ASSERT_EQ(manifest.substr(manifest.size() - 3), "}}\n");
    manifest.insert(manifest.size() - 3,
                    ",\"segments\":[{\"file\":\"seg-000000000001.json\","
                    "\"first_seq\":1,\"last_seq\":" +
                        last_seq +
                        ",\"block_rows\":7,\"round_rows\":3,"
                        "\"fnv\":\"0123456789abcdef\"}]");
    write_file_raw(manifest_path, manifest);
    write_file_raw(dir + "/seg-000000000001.json", "{\"segment\":garbage");

    const auto data = store::load_store(dir);
    EXPECT_EQ(data.meta.spec_digest, clean.meta.spec_digest);
    ASSERT_EQ(data.blocks.size(), clean.blocks.size());
    for (std::size_t i = 0; i < data.blocks.size(); ++i) {
        EXPECT_EQ(data.blocks[i].seq, clean.blocks[i].seq);
        EXPECT_EQ(data.blocks[i].round, clean.blocks[i].round);
        EXPECT_EQ(data.blocks[i].block.index, clean.blocks[i].block.index);
    }
    ASSERT_EQ(data.rounds.size(), clean.rounds.size());
    for (std::size_t i = 0; i < data.rounds.size(); ++i)
        EXPECT_EQ(data.rounds[i].summary.round, clean.rounds[i].summary.round);
    EXPECT_EQ(store::aggregate_json(data, store::aggregate_cells(data, {})),
              store::aggregate_json(clean, store::aggregate_cells(clean, {})));
    // Completion is the log's entry, not the manifest's flag.
    EXPECT_FALSE(data.complete);
    EXPECT_EQ(data.next_seq, clean.next_seq);

    {
        auto writer = store::store_writer::open(dir, spec, /*resume=*/true);
        obs::round_summary s;
        s.round = 4;
        writer.ingest_round(s);
    }
    const auto resumed = store::load_store(dir);
    ASSERT_EQ(resumed.rounds.size(), 4u);
    EXPECT_EQ(resumed.rounds.back().seq, clean.next_seq);
}

TEST(store_recovery, writer_crash_before_finalize_resumes_and_completes) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("crash-resume");
    const auto canonical = campaign::blocks_for(spec);

    auto chunk = [&](std::size_t from, std::size_t to) {
        std::vector<dist::partial_block> blocks;
        for (std::size_t i = from; i < to && i < canonical.size(); ++i) {
            dist::partial_block b;
            b.index = canonical[i].index;
            b.cell = canonical[i].cell;
            b.partial.trials = canonical[i].trials;
            blocks.push_back(b);
        }
        return blocks;
    };
    auto summary_for = [](std::uint64_t round) {
        obs::round_summary s;
        s.round = round;
        return s;
    };

    {
        // "Crash": the writer goes away mid-campaign without finalize.
        auto writer = store::store_writer::open(dir, spec, false);
        writer.ingest_blocks(1, chunk(0, 2));
        writer.ingest_round(summary_for(1));
    }
    {
        const auto partial = store::load_store(dir);
        EXPECT_FALSE(partial.complete);
        EXPECT_EQ(partial.blocks.size(), 2u);
    }
    {
        auto writer = store::store_writer::open(dir, spec, /*resume=*/true);
        // An at-least-once replay of round 1 dedups; the rest lands fresh.
        writer.ingest_blocks(1, chunk(0, 2));
        EXPECT_EQ(writer.skipped_blocks(), 2u);
        writer.ingest_blocks(2, chunk(2, canonical.size()));
        writer.ingest_round(summary_for(2));
        campaign::campaign_report report;
        report.spec = spec;
        writer.finalize(report, "{}");

        const auto data = store::load_store(dir);
        EXPECT_TRUE(data.complete);
        EXPECT_EQ(data.done.report_fnv, util::fnv1a64(report.to_json()));
        EXPECT_EQ(store::dedup_blocks(data).size(), canonical.size());
        EXPECT_EQ(data.metrics, "{}");
    }
}

}  // namespace
}  // namespace pssp
