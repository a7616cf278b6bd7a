// Store damage drills. The ingest log is ground truth and segments are a
// pure projection of it, so every recovery path has a binary outcome:
// the repair reproduces the manifest hash bit for bit, or the load fails
// loudly. Nothing in between, nothing papered over.

#include <gtest/gtest.h>

#include <cstdio>
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
    // blocks for three rounds with one segment each.
    spec.trials_per_cell = 192;
    spec.master_seed = 53;
    spec.query_budget = 512;
    return spec;
}

// Builds a three-round store with one column segment per round
// (compact_every_rounds = 1): the canonical block list split into three
// chunks, each ingested as its round's accepted partials. Left
// unfinalized so the store looks like a live campaign.
void build_store(const std::string& dir, const campaign::campaign_spec& spec) {
    store::writer_options wopts;
    wopts.compact_every_rounds = 1;
    auto writer = store::store_writer::open(dir, spec, false, wopts);
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

// Flips one byte somewhere inside the payload (not the trailing newline).
std::string flipped(std::string bytes, std::size_t at = 40) {
    at = std::min(at, bytes.size() / 2);
    bytes[at] = bytes[at] == 'x' ? 'y' : 'x';
    return bytes;
}

TEST(store_recovery, torn_segment_rebuilt_bit_identical) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("torn-seg");
    build_store(dir, spec);

    const auto clean = store::load_store(dir);
    ASSERT_GE(clean.meta.segments.size(), 3u);
    EXPECT_EQ(clean.repaired_segments, 0u);
    const auto clean_answer =
        store::aggregate_json(clean, store::aggregate_cells(clean, {}));

    const std::string seg_path = dir + "/" + clean.meta.segments[0].file;
    const auto original = read_file_or_die(seg_path);
    write_file_raw(seg_path, flipped(original));

    const auto repaired = store::load_store(dir);
    EXPECT_EQ(repaired.repaired_segments, 1u);
    EXPECT_EQ(repaired.blocks.size(), clean.blocks.size());
    EXPECT_EQ(repaired.rounds.size(), clean.rounds.size());
    EXPECT_EQ(store::aggregate_json(repaired,
                                    store::aggregate_cells(repaired, {})),
              clean_answer);
    // The repair wrote the original bytes back: same file, bit for bit.
    EXPECT_EQ(read_file_or_die(seg_path), original);

    // A deleted segment is the same failure mode as a torn one.
    ASSERT_EQ(::unlink(seg_path.c_str()), 0);
    const auto restored = store::load_store(dir);
    EXPECT_EQ(restored.repaired_segments, 1u);
    EXPECT_EQ(read_file_or_die(seg_path), original);
}

TEST(store_recovery, no_repair_serves_rows_without_rewriting) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("no-repair");
    build_store(dir, spec);

    const auto clean = store::load_store(dir);
    const auto clean_answer =
        store::aggregate_json(clean, store::aggregate_cells(clean, {}));
    const std::string seg_path = dir + "/" + clean.meta.segments[0].file;
    const auto original = read_file_or_die(seg_path);
    const auto corrupt = flipped(original);
    write_file_raw(seg_path, corrupt);

    store::load_options read_only;
    read_only.repair = false;
    const auto data = store::load_store(dir, read_only);
    EXPECT_EQ(data.repaired_segments, 1u);
    EXPECT_EQ(store::aggregate_json(data, store::aggregate_cells(data, {})),
              clean_answer);
    // Served from the rebuilt rows, but the disk was left untouched.
    EXPECT_EQ(read_file_or_die(seg_path), corrupt);
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

TEST(store_recovery, unreproducible_segment_fails_loudly) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("unreproducible");
    build_store(dir, spec);

    // Tamper the manifest's hash for segment 0: the stored file no longer
    // matches, and the rebuild from the (intact) log reproduces the
    // *original* bytes — which cannot match the tampered hash either. The
    // load must refuse rather than serve rows it cannot vouch for.
    const auto clean = store::load_store(dir);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(clean.meta.segments[0].fnv));
    const std::string manifest_path = dir + "/store.json";
    auto manifest = read_file_or_die(manifest_path);
    const auto pos = manifest.find(hex);
    ASSERT_NE(pos, std::string::npos);
    manifest[pos] = manifest[pos] == '0' ? '1' : '0';
    write_file_raw(manifest_path, manifest);

    try {
        (void)store::load_store(dir);
        FAIL() << "expected the unreproducible segment to fail the load";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("cannot reproduce it"),
                  std::string::npos)
            << e.what();
    }
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
        store::writer_options wopts;
        wopts.compact_every_rounds = 1;
        auto writer = store::store_writer::open(dir, spec, false, wopts);
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
