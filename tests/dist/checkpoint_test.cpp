// Crash-resumable sharded runs, end to end: the result store in
// sharded_options::checkpoint_dir is the orchestrator's one durable log.
// Real fork/exec workers; an orchestrator death is simulated by a round
// observer that throws after round N (the store has already fsync'd that
// round), and --resume must produce a byte-identical report while
// re-running only the missing rounds. The durable unit is one accepted
// round for fixed (round 0) and adaptive runs alike. Pins the corruption
// contract: a flipped hexfloat digit, a foreign spec digest and a wrong
// round structure each fail resume loudly with a position-bearing error,
// while a torn final line (the one state a killed appender leaves) is
// dropped and its round re-run.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/orchestrator.hpp"
#include "dist/wire.hpp"
#include "obs/telemetry.hpp"
#include "store/query.hpp"
#include "store/reader.hpp"
#include "store/store.hpp"
#include "util/bytes.hpp"

namespace pssp {
namespace {

// A unique path under the gtest temp root, not yet created: the store
// creates its directory itself, so this exercises that too.
std::string fresh_dir(const char* tag) {
    static int serial = 0;
    return ::testing::TempDir() + "pssp-ckpt-" + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(serial++);
}

std::string read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << content;
}

// Accepted rounds in an ingest log: one blocks entry each.
std::size_t blocks_entries(const std::string& log) {
    std::size_t n = 0;
    for (auto pos = log.find("\"k\":\"blocks\""); pos != std::string::npos;
         pos = log.find("\"k\":\"blocks\"", pos + 1))
        ++n;
    return n;
}

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 6;
    spec.master_seed = 29;
    spec.query_budget = 512;
    return spec;
}

// Two deterministic adaptive rounds (target 0 never converges; 4 blocks
// at 2 per round), so the store holds two blocks entries.
campaign::campaign_spec two_round_spec() {
    auto spec = small_spec();
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;
    spec.trials_per_cell = 96;
    spec.round_blocks = 2;
    spec.min_trials_per_cell = 32;
    return spec;
}

dist::sharded_options stored_options(const std::string& dir) {
    dist::sharded_options options;
    options.shards = 2;
    options.flight_recorder = false;
    options.postmortem_dir = ::testing::TempDir();
    options.checkpoint_dir = dir;
    return options;
}

// Runs `spec` into a fresh store and "kills" the orchestrator right after
// round `round` was observed, the way --kill-after-round does.
void run_until_killed(const campaign::campaign_spec& spec,
                      const std::string& dir, std::uint64_t round) {
    struct killed {};
    auto options = stored_options(dir);
    options.round_observer = [round](const obs::round_summary& r) {
        if (r.round == round) throw killed{};
    };
    EXPECT_THROW((void)dist::run_sharded(spec, options), killed);
}

// What `tools_campaign_query --verify` checks: complete, and the
// reconstructed report hashes to the completion entry.
void expect_store_verifies(const std::string& dir,
                           const std::string& reference) {
    const auto data = store::load_store(dir);
    EXPECT_TRUE(data.complete);
    EXPECT_FALSE(data.dropped_torn_tail);
    EXPECT_EQ(store::reconstruct_report(data).to_json(), reference);
    EXPECT_EQ(data.done.report_fnv, util::fnv1a64(reference));
}

TEST(dist_checkpoint, fixed_resume_is_byte_identical) {
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    const auto dir = fresh_dir("fixed");
    auto options = stored_options(dir);

    // A stored run changes nothing about the report...
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    // ...and leaves one durable round: the fixed campaign's round 0.
    const auto log_path = dir + "/ingest.log";
    const auto log = read_file(log_path);
    EXPECT_EQ(blocks_entries(log), 1u);
    expect_store_verifies(dir, reference);

    // A run that died before round 0 was durable leaves a store with no
    // round; resume re-runs every block. The "death": a worker that
    // cannot be spawned, with no retries.
    const auto empty_dir = fresh_dir("fixed-empty");
    auto doomed = stored_options(empty_dir);
    doomed.worker_path = "/nonexistent/campaign_worker";
    doomed.faults.max_attempts = 1;
    EXPECT_THROW((void)dist::run_sharded(spec, doomed), std::runtime_error);
    EXPECT_EQ(blocks_entries(read_file(empty_dir + "/ingest.log")), 0u);
    auto resume = stored_options(empty_dir);
    resume.resume = true;
    EXPECT_EQ(dist::run_sharded(spec, resume).to_json(), reference);
    EXPECT_EQ(blocks_entries(read_file(empty_dir + "/ingest.log")), 1u);
    expect_store_verifies(empty_dir, reference);
}

TEST(dist_checkpoint, per_job_fixed_store_fails_resume_with_its_position) {
    // A fixed run's round split into one round-0 blocks entry per shard
    // job cannot be replayed as the single round 0; resume must say where
    // it broke.
    const auto spec = small_spec();
    const auto dir = fresh_dir("per-job");
    {
        auto writer = store::store_writer::open(dir, spec, false);
        for (const auto& b : campaign::blocks_for(spec)) {
            dist::partial_block block;
            block.index = b.index;
            block.cell = b.cell;
            block.partial.trials = b.trials;
            writer.ingest_blocks(0, std::vector<dist::partial_block>{block});
        }
    }
    ASSERT_EQ(blocks_entries(read_file(dir + "/ingest.log")), 2u);

    auto options = stored_options(dir);
    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a per-job fixed store must fail resume";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(dir + "/ingest.log line 1"), std::string::npos)
            << what;
        EXPECT_NE(what.find("round 0"), std::string::npos) << what;
    }
}

TEST(dist_checkpoint, adaptive_resume_is_byte_identical) {
    // The durable unit is one accepted round; resume replays round 1
    // through the allocator and runs only round 2.
    const auto spec = two_round_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    const auto dir = fresh_dir("adaptive");
    run_until_killed(spec, dir, 1);
    EXPECT_EQ(blocks_entries(read_file(dir + "/ingest.log")), 1u);

    auto options = stored_options(dir);
    options.resume = true;
    std::vector<obs::round_summary> rounds;
    options.round_observer = [&rounds](const obs::round_summary& r) {
        rounds.push_back(r);
    };
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    // Telemetry must tell replayed rounds from re-run ones.
    ASSERT_EQ(rounds.size(), 2u);
    EXPECT_TRUE(rounds[0].resumed);
    EXPECT_FALSE(rounds[1].resumed);
    EXPECT_EQ(blocks_entries(read_file(dir + "/ingest.log")), 2u);
    expect_store_verifies(dir, reference);
}

TEST(dist_checkpoint, torn_tail_is_dropped_and_its_round_reruns) {
    // Killed after round 2, then the tail torn inside round 2's blocks
    // entry: the torn line is dropped, round 1 replays, round 2 re-runs,
    // and the resumed store verifies — the torn bytes were cut before
    // the first append instead of being glued to it.
    const auto spec = two_round_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    const auto dir = fresh_dir("torn");
    run_until_killed(spec, dir, 2);

    // Lines: 1 = round 1 blocks, 2 = round 1 summary, 3 = round 2 blocks,
    // 4 = round 2 summary. Keep lines 1-2 and half of line 3.
    const auto log_path = dir + "/ingest.log";
    const auto log = read_file(log_path);
    ASSERT_EQ(blocks_entries(log), 2u);
    const auto end2 = log.find('\n', log.find('\n') + 1);
    const auto end3 = log.find('\n', end2 + 1);
    ASSERT_NE(end3, std::string::npos);
    write_file(log_path, log.substr(0, end2 + 1 + (end3 - end2) / 2));
    ASSERT_TRUE(store::load_store(dir).dropped_torn_tail);

    auto options = stored_options(dir);
    options.resume = true;
    std::vector<obs::round_summary> rounds;
    options.round_observer = [&rounds](const obs::round_summary& r) {
        rounds.push_back(r);
    };
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    ASSERT_EQ(rounds.size(), 2u);
    EXPECT_TRUE(rounds[0].resumed);
    EXPECT_FALSE(rounds[1].resumed) << "the torn round must re-run";
    EXPECT_EQ(blocks_entries(read_file(log_path)), 2u);
    expect_store_verifies(dir, reference);
}

TEST(dist_checkpoint, flipped_hexfloat_digit_fails_resume_loudly) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("flip");
    run_until_killed(spec, dir, 0);

    // Flip one hex digit inside the first hexfloat of line 1. The entry
    // stays structurally valid JSON — only the integrity hash can tell.
    const auto log_path = dir + "/ingest.log";
    auto content = read_file(log_path);
    const auto pos = content.find("0x");
    ASSERT_NE(pos, std::string::npos) << "no hexfloat in the log";
    ASSERT_LT(pos + 2, content.find('\n'));
    content[pos + 2] = content[pos + 2] == '0' ? '1' : '0';
    write_file(log_path, content);

    auto options = stored_options(dir);
    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a corrupt store entry must fail resume";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(log_path + " line 1"), std::string::npos) << what;
        EXPECT_NE(what.find("integrity hash mismatch"), std::string::npos)
            << what;
    }
}

TEST(dist_checkpoint, foreign_spec_digest_fails_resume_loudly) {
    auto spec = small_spec();
    const auto dir = fresh_dir("foreign");
    auto options = stored_options(dir);
    (void)dist::run_sharded(spec, options);

    spec.master_seed += 1;  // a different campaign
    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a foreign store must never be merged";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("spec digest mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("different campaign"), std::string::npos) << what;
    }
}

TEST(dist_checkpoint, create_refuses_existing_and_resume_needs_one) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("refuse");
    auto options = stored_options(dir);
    (void)dist::run_sharded(spec, options);

    // Without --resume an existing store must not be overwritten.
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a fresh run must refuse an existing store";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("refusing to overwrite"),
                  std::string::npos)
            << e.what();
    }
    // Resuming a directory that holds no store fails loudly, names it,
    // and creates nothing.
    const auto missing = fresh_dir("missing");
    options.checkpoint_dir = missing;
    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "resume of a directory without a store must fail";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(missing), std::string::npos) << what;
        EXPECT_NE(what.find("missing store.json"), std::string::npos) << what;
    }
    struct stat st {};
    EXPECT_NE(::stat(missing.c_str(), &st), 0) << "resume created " << missing;
    // Resume without a store directory is a usage error.
    options.checkpoint_dir.clear();
    EXPECT_THROW((void)dist::run_sharded(spec, options), std::invalid_argument);
}

TEST(dist_checkpoint, many_round_store_streams_back_exactly) {
    // load_store streams ingest.log line by line (util::scan_lines) rather
    // than slurping it; a log far larger than the scanner's read chunk
    // must give back every round in order with every hexfloat intact,
    // including entries straddling chunk boundaries.
    const auto dir = fresh_dir("many");
    constexpr std::uint64_t kRounds = 500;
    {
        auto writer = store::store_writer::open(dir, small_spec(), false);
        for (std::uint64_t round = 1; round <= kRounds; ++round) {
            std::vector<dist::partial_block> blocks;
            for (std::uint64_t b = 0; b < 3; ++b) {
                dist::partial_block block;
                block.index = (round - 1) * 3 + b;
                block.cell = b;
                block.partial.trials = 4;
                block.partial.hijacks = round % 5;
                block.partial.queries.add(static_cast<double>(round) / 3.0);
                block.partial.queries.add(static_cast<double>(b) + 0.0625);
                blocks.push_back(block);
            }
            writer.ingest_blocks(round, blocks);
        }
    }
    EXPECT_EQ(blocks_entries(read_file(dir + "/ingest.log")), kRounds);

    const auto data = store::load_store(dir);
    ASSERT_EQ(data.blocks.size(), 3 * kRounds);
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
        for (std::uint64_t b = 0; b < 3; ++b) {
            const auto& row = data.blocks[(round - 1) * 3 + b];
            ASSERT_EQ(row.seq, round);
            ASSERT_EQ(row.round, round);
            const auto& block = row.block;
            EXPECT_EQ(block.index, (round - 1) * 3 + b);
            EXPECT_EQ(block.partial.hijacks, round % 5);
            // Bit-exact Welford state through the wire and back.
            util::welford_accumulator expect;
            expect.add(static_cast<double>(round) / 3.0);
            expect.add(static_cast<double>(b) + 0.0625);
            EXPECT_EQ(block.partial.queries.save().mean, expect.save().mean);
            EXPECT_EQ(block.partial.queries.save().m2, expect.save().m2);
        }
    }
}

}  // namespace
}  // namespace pssp
