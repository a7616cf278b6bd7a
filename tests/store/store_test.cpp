// The result store's write path, end to end through the real fork/exec
// orchestrator, which owns the writer (sharded_options::checkpoint_dir).
// Pins the three store contracts: (1) the side-channel invariant — report
// bytes are identical with the store on or off, at any shard count,
// fixed or adaptive; (2) the identity oracle — a complete store
// reconstructs the campaign report byte for byte, including after chaos
// faults and a kill/resume; (3) idempotent ingest — replays and
// duplicate deliveries never change what a query sees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/chaos.hpp"
#include "dist/orchestrator.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "util/fsio.hpp"

namespace pssp {
namespace {

std::string fresh_dir(const char* tag) {
    static int serial = 0;
    return ::testing::TempDir() + "pssp-store-" + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(serial++);
}

struct scoped_fault_plan {
    explicit scoped_fault_plan(const char* plan) {
        ::setenv(dist::fault_plan_env, plan, /*overwrite=*/1);
    }
    ~scoped_fault_plan() { ::unsetenv(dist::fault_plan_env); }
};

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 6;
    spec.master_seed = 47;
    spec.query_budget = 512;
    return spec;
}

dist::sharded_options base_options(unsigned shards) {
    dist::sharded_options options;
    options.shards = shards;
    options.flight_recorder = false;
    options.postmortem_dir = ::testing::TempDir();
    options.faults.backoff_base_seconds = 0.001;
    options.faults.backoff_cap_seconds = 0.01;
    return options;
}

// The tools_campaign_shard --store wiring: the orchestrator opens,
// feeds and finalizes the store in `dir` itself.
campaign::campaign_report run_with_store(const campaign::campaign_spec& spec,
                                         dist::sharded_options options,
                                         const std::string& dir) {
    options.checkpoint_dir = dir;
    return dist::run_sharded(spec, options);
}

TEST(store_store, report_identical_with_store_on_or_off_fixed) {
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    for (const unsigned shards : {1u, 3u}) {
        const auto dir = fresh_dir("fixed");
        const auto report =
            run_with_store(spec, base_options(shards), dir);
        EXPECT_EQ(report.to_json(), reference)
            << "store ingest moved report bytes at --shards " << shards;

        // The identity oracle: the store alone reproduces the report.
        const auto data = store::load_store(dir);
        EXPECT_TRUE(data.complete);
        EXPECT_EQ(store::reconstruct_report(data).to_json(), reference);
        // Finalized with the registry snapshot of the run.
        EXPECT_EQ(data.metrics.front(), '{');
    }
}

TEST(store_store, report_identical_with_store_on_or_off_adaptive) {
    auto spec = small_spec();
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;  // never converges: runs the budget out
    spec.trials_per_cell = 96;
    spec.round_blocks = 2;
    spec.min_trials_per_cell = 32;
    const auto reference = campaign::engine{spec}.run().to_json();
    for (const unsigned shards : {1u, 2u}) {
        const auto dir = fresh_dir("adaptive");
        const auto report =
            run_with_store(spec, base_options(shards), dir);
        EXPECT_EQ(report.to_json(), reference);

        const auto data = store::load_store(dir);
        EXPECT_TRUE(data.complete);
        EXPECT_GT(data.rounds.size(), 1u) << "expected a multi-round run";
        EXPECT_EQ(store::reconstruct_report(data).to_json(), reference);
        // Every block row carries the adaptive round that produced it.
        for (const auto& row : data.blocks) EXPECT_GE(row.round, 1u);
    }
}

TEST(store_store, chaos_run_ingest_equals_clean_run) {
    // Crash, hang and corrupt faults on first attempts: supervision
    // requeues everything, and the store — fed only *accepted* partials —
    // must end up answering queries identically to a clean run's store.
    const auto spec = small_spec();
    const auto clean_dir = fresh_dir("clean");
    const auto clean_report =
        run_with_store(spec, base_options(2), clean_dir);

    const auto chaos_dir = fresh_dir("chaos");
    std::optional<campaign::campaign_report> chaos_report;
    {
        scoped_fault_plan plan{"crash:0,corrupt:1"};
        auto options = base_options(2);
        options.faults.timeout_seconds = 30.0;
        chaos_report = run_with_store(spec, options, chaos_dir);
    }
    EXPECT_EQ(chaos_report->to_json(), clean_report.to_json());

    const auto clean = store::load_store(clean_dir);
    const auto chaos = store::load_store(chaos_dir);
    EXPECT_EQ(store::reconstruct_report(chaos).to_json(),
              store::reconstruct_report(clean).to_json());
    EXPECT_EQ(store::aggregate_json(chaos,
                                    store::aggregate_cells(chaos, {})),
              store::aggregate_json(clean,
                                    store::aggregate_cells(clean, {})));
}

TEST(store_store, ingest_is_idempotent) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("dedup");
    auto writer = store::store_writer::open(dir, spec, false);

    // Hand-build one valid block partial per canonical block.
    const auto canonical = campaign::blocks_for(spec);
    std::vector<dist::partial_block> blocks;
    for (const auto& ref : canonical) {
        dist::partial_block b;
        b.index = ref.index;
        b.cell = ref.cell;
        b.partial.trials = ref.trials;
        b.partial.hijacks = ref.trials;
        blocks.push_back(b);
    }
    writer.ingest_blocks(1, blocks);
    EXPECT_EQ(writer.ingested_blocks(), blocks.size());
    // A replayed delivery of the same blocks is skipped wholesale.
    writer.ingest_blocks(1, blocks);
    EXPECT_EQ(writer.ingested_blocks(), blocks.size());
    EXPECT_EQ(writer.skipped_blocks(), blocks.size());

    obs::round_summary summary;
    summary.round = 1;
    summary.blocks = blocks.size();
    writer.ingest_round(summary);
    writer.ingest_round(summary);  // dedup by round number

    const auto data = store::load_store(dir);
    EXPECT_EQ(data.blocks.size(), blocks.size());
    EXPECT_EQ(data.rounds.size(), 1u);
    EXPECT_EQ(store::dedup_blocks(data).size(), blocks.size());
}

TEST(store_store, store_json_is_written_once) {
    // A store is its manifest, written at open, and its log: nothing
    // else lands in the directory and the manifest is never rewritten,
    // not by ingest, finalize, or a read-only resume of the finished store.
    const auto spec = small_spec();
    const auto dir = fresh_dir("write-once");
    const auto manifest_path = dir + "/store.json";
    std::string at_open;
    campaign::campaign_report report;
    report.spec = spec;
    {
        auto writer = store::store_writer::open(dir, spec, false);
        ASSERT_TRUE(util::read_file(manifest_path, at_open));
        std::vector<dist::partial_block> blocks;
        for (const auto& ref : campaign::blocks_for(spec)) {
            dist::partial_block b;
            b.index = ref.index;
            b.cell = ref.cell;
            b.partial.trials = ref.trials;
            blocks.push_back(b);
        }
        writer.ingest_blocks(1, blocks);
        obs::round_summary summary;
        summary.round = 1;
        writer.ingest_round(summary);
        writer.finalize(report, "{}");
    }
    {
        auto writer = store::store_writer::open(dir, spec, /*resume=*/true);
        writer.finalize(report, "{}");
    }

    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator{dir})
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"ingest.log", "store.json"}));
    std::string at_end;
    ASSERT_TRUE(util::read_file(manifest_path, at_end));
    EXPECT_EQ(at_end, at_open);
    EXPECT_TRUE(store::load_store(dir).complete);
}

TEST(store_store, refuses_existing_store_without_resume) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("refuse");
    { auto writer = store::store_writer::open(dir, spec, false); }
    try {
        auto writer = store::store_writer::open(dir, spec, false);
        FAIL() << "expected refusal to overwrite an existing store";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("refusing to overwrite"),
                  std::string::npos)
            << e.what();
    }
}

TEST(store_store, resume_requires_matching_spec_digest) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("digest");
    { auto writer = store::store_writer::open(dir, spec, false); }
    auto other = spec;
    other.master_seed += 1;
    try {
        auto writer = store::store_writer::open(dir, other, true);
        FAIL() << "expected a spec digest mismatch";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("spec digest mismatch"), std::string::npos)
            << what;
        EXPECT_NE(what.find("different campaign"), std::string::npos) << what;
    }
}

TEST(store_store, resume_without_a_store_throws_and_creates_nothing) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("absent");
    try {
        auto writer = store::store_writer::open(dir, spec, /*resume=*/true);
        FAIL() << "expected resume of a missing store to throw";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(dir), std::string::npos) << what;
        EXPECT_NE(what.find("missing store.json"), std::string::npos) << what;
    }
    EXPECT_NE(::access(dir.c_str(), F_OK), 0) << "resume created " << dir;
}

TEST(store_store, complete_store_resumes_read_only) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("complete");
    const auto report = run_with_store(spec, base_options(1), dir);
    const auto log_path = dir + "/ingest.log";
    std::string log_before;
    ASSERT_TRUE(util::read_file(log_path, log_before));

    // Resume replays the complete store, spawns no worker (a missing
    // worker binary would fail any spawn), and appends nothing.
    auto options = base_options(2);
    options.worker_path = "/nonexistent/campaign_worker";
    options.resume = true;
    EXPECT_EQ(run_with_store(spec, options, dir).to_json(), report.to_json());
    std::string log_after;
    ASSERT_TRUE(util::read_file(log_path, log_after));
    EXPECT_EQ(log_after, log_before);

    // A report that does not hash to the completion entry is refused, and
    // so is anything that would append to the finished log.
    auto writer = store::store_writer::open(dir, spec, true);
    campaign::campaign_report other = report;
    other.spec.master_seed += 1;
    try {
        writer.finalize(other, "{}");
        FAIL() << "expected a mismatching report FNV to throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("differs from the stored"),
                  std::string::npos)
            << e.what();
    }
    obs::round_summary fresh_round;
    fresh_round.round = 7;
    try {
        writer.ingest_round(fresh_round);
        FAIL() << "expected the complete store to refuse ingest";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("already complete"),
                  std::string::npos)
            << e.what();
    }
    ASSERT_TRUE(util::read_file(log_path, log_after));
    EXPECT_EQ(log_after, log_before);
}

TEST(store_store, kill_resume_reconstruction_is_byte_identical) {
    // An orchestrator killed between rounds leaves a store without its
    // completion entry; resuming finishes it, and the final store answers
    // identically to an uninterrupted run.
    auto spec = small_spec();
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;
    spec.trials_per_cell = 96;
    spec.round_blocks = 2;
    spec.min_trials_per_cell = 32;
    const auto reference = campaign::engine{spec}.run().to_json();

    const auto store_dir = fresh_dir("kill");

    // "Kill" after round 1: a round_observer that throws once round 1 is
    // durable — the writer's destructor runs, leaving a durable but
    // incomplete store, exactly like a SIGKILL between rounds would.
    struct stop_run {};
    {
        auto options = base_options(2);
        options.round_observer = [](const obs::round_summary& r) {
            if (r.round == 1) throw stop_run{};
        };
        EXPECT_THROW(run_with_store(spec, options, store_dir), stop_run);
    }
    {
        const auto partial = store::load_store(store_dir);
        EXPECT_FALSE(partial.complete);
        EXPECT_GT(partial.blocks.size(), 0u);
        EXPECT_EQ(partial.rounds.size(), 1u);
    }

    // Resume: the store replays round 1, the remaining rounds run and
    // ingest, finalize completes.
    auto options = base_options(2);
    options.resume = true;
    EXPECT_EQ(run_with_store(spec, options, store_dir).to_json(), reference);

    const auto data = store::load_store(store_dir);
    EXPECT_TRUE(data.complete);
    EXPECT_EQ(store::dedup_blocks(data).size(), data.blocks.size())
        << "a replayed round was ingested twice";
    EXPECT_EQ(store::reconstruct_report(data).to_json(), reference);
}

}  // namespace
}  // namespace pssp
