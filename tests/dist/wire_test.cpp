// Wire format: spec and partial-report JSON round trips, with the Welford
// state surviving at full double precision — the property the sharded
// byte-identity contract stands on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "campaign/engine.hpp"
#include "dist/wire.hpp"
#include "util/json.hpp"

namespace pssp {
namespace {

// The spec's wire encoding, and back.
std::string spec_text(const campaign::campaign_spec& spec) {
    std::string out;
    dist::append_spec_object(out, spec);
    return out;
}

campaign::campaign_spec parse_spec(const std::string& text) {
    return dist::spec_from_object(util::parse_json(text));
}

TEST(dist_wire, spec_round_trip) {
    campaign::campaign_spec spec = campaign::full_spec();
    spec.trials_per_cell = 1234;
    spec.master_seed = 0xdeadbeefcafef00dull;
    spec.jobs = 7;
    spec.reuse_masters = false;
    spec.query_budget = 9999;
    spec.brute_unknown_bits = 17;
    spec.scheme_options.owf = crypto::owf_kind::sha1;
    spec.scheme_options.lv_check_after_write = true;
    spec.scheme_options.dcr_trampoline_cycles = 777;

    const auto parsed = parse_spec(spec_text(spec));
    EXPECT_EQ(parsed.schemes, spec.schemes);
    EXPECT_EQ(parsed.attacks, spec.attacks);
    EXPECT_EQ(parsed.targets, spec.targets);
    EXPECT_EQ(parsed.trials_per_cell, spec.trials_per_cell);
    EXPECT_EQ(parsed.master_seed, spec.master_seed);
    EXPECT_EQ(parsed.jobs, spec.jobs);
    EXPECT_EQ(parsed.reuse_masters, spec.reuse_masters);
    EXPECT_EQ(parsed.query_budget, spec.query_budget);
    EXPECT_EQ(parsed.brute_unknown_bits, spec.brute_unknown_bits);
    EXPECT_EQ(parsed.scheme_options.owf, spec.scheme_options.owf);
    EXPECT_EQ(parsed.scheme_options.lv_check_after_write,
              spec.scheme_options.lv_check_after_write);
    EXPECT_EQ(parsed.scheme_options.dcr_trampoline_cycles,
              spec.scheme_options.dcr_trampoline_cycles);
    // And the round trip is a fixed point of the serialization itself.
    EXPECT_EQ(spec_text(parsed), spec_text(spec));
}

TEST(dist_wire, spec_round_trip_preserves_adaptive_knobs_exactly) {
    campaign::campaign_spec spec = campaign::default_spec();
    spec.adaptive = true;
    // An awkward mantissa: the stop decision compares against this double,
    // so the wire must deliver the identical bits to every worker.
    spec.target_ci_halfwidth = 0.1 + 1e-17;
    spec.round_blocks = 5;
    spec.min_trials_per_cell = 33;
    const auto parsed = parse_spec(spec_text(spec));
    EXPECT_EQ(parsed.adaptive, true);
    EXPECT_EQ(parsed.target_ci_halfwidth, spec.target_ci_halfwidth);
    EXPECT_EQ(parsed.round_blocks, 5u);
    EXPECT_EQ(parsed.min_trials_per_cell, 33u);
    EXPECT_EQ(spec_text(parsed), spec_text(spec));
}

TEST(dist_wire, spec_digest_ignores_execution_knobs_only) {
    auto spec = campaign::default_spec();
    const auto digest = dist::spec_digest(spec);
    auto tweaked = spec;
    tweaked.jobs = 64;
    tweaked.reuse_masters = false;
    EXPECT_EQ(dist::spec_digest(tweaked), digest)
        << "execution knobs must not move the digest";
    tweaked = spec;
    tweaked.master_seed ^= 1;
    EXPECT_NE(dist::spec_digest(tweaked), digest);
    tweaked = spec;
    tweaked.trials_per_cell += 1;
    EXPECT_NE(dist::spec_digest(tweaked), digest);
    tweaked = spec;
    tweaked.schemes.pop_back();
    EXPECT_NE(dist::spec_digest(tweaked), digest);
    // The adaptive knobs decide which trials run, so they MUST move it.
    tweaked = spec;
    tweaked.adaptive = true;
    EXPECT_NE(dist::spec_digest(tweaked), digest);
    tweaked = spec;
    tweaked.target_ci_halfwidth = 0.25;
    EXPECT_NE(dist::spec_digest(tweaked), digest);
    tweaked = spec;
    tweaked.round_blocks = 7;
    EXPECT_NE(dist::spec_digest(tweaked), digest);
    tweaked = spec;
    tweaked.min_trials_per_cell = 1;
    EXPECT_NE(dist::spec_digest(tweaked), digest);
}

TEST(dist_wire, round_job_round_trip) {
    dist::round_job job;
    job.spec = campaign::default_spec();
    job.spec.adaptive = true;
    job.spec.trials_per_cell = 130;
    job.manifest.round = 3;
    job.manifest.digest = dist::spec_digest(job.spec);
    const auto canonical = campaign::blocks_for(job.spec);
    job.manifest.blocks = {canonical[0], canonical[4], canonical[7]};

    const auto parsed = dist::round_job_from_json(dist::round_job_to_json(job));
    EXPECT_EQ(parsed.manifest.round, 3u);
    EXPECT_EQ(parsed.manifest.digest, job.manifest.digest);
    ASSERT_EQ(parsed.manifest.blocks.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(parsed.manifest.blocks[i].index, job.manifest.blocks[i].index);
        EXPECT_EQ(parsed.manifest.blocks[i].cell, job.manifest.blocks[i].cell);
        EXPECT_EQ(parsed.manifest.blocks[i].first_trial,
                  job.manifest.blocks[i].first_trial);
        EXPECT_EQ(parsed.manifest.blocks[i].trials,
                  job.manifest.blocks[i].trials);
    }
    EXPECT_EQ(dist::spec_digest(parsed.spec), job.manifest.digest);
    // Serialization is a fixed point.
    EXPECT_EQ(dist::round_job_to_json(parsed), dist::round_job_to_json(job));
    // A wrong version is rejected.
    EXPECT_THROW((void)dist::round_job_from_json(
                     "{\"round_job\":{\"version\":1,\"round\":1,"
                     "\"spec_digest\":0,\"spec\":{},\"blocks\":[]}}"),
                 std::runtime_error);
}

TEST(dist_wire, partial_round_header_survives_and_gates_the_merge) {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 2;
    spec.master_seed = 7;
    campaign::engine engine{spec};
    const auto blocks = campaign::blocks_for(spec);
    const auto block_partials = engine.run_blocks(blocks);

    dist::partial_report partial;
    partial.shard_index = 0;
    partial.shard_count = 1;
    partial.round = 5;
    partial.digest = dist::spec_digest(spec);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        partial.blocks.push_back(dist::partial_block{
            blocks[i].index, blocks[i].cell, block_partials[i]});

    const auto parsed = dist::partial_from_json(dist::partial_to_json(partial));
    EXPECT_EQ(parsed.round, 5u);

    std::vector<dist::partial_report> partials{parsed};
    // collect at the right round works; the wrong round is a loud error —
    // a stale worker from a previous round must never merge.
    EXPECT_NO_THROW(
        (void)dist::collect_block_partials(spec, blocks, partials, 5));
    EXPECT_THROW((void)dist::collect_block_partials(spec, blocks, partials, 4),
                 std::runtime_error);
    // Nor may it pass as a fixed campaign's round 0.
    EXPECT_THROW((void)dist::collect_block_partials(spec, blocks, partials, 0),
                 std::runtime_error);

    // A block outside the collected subset is "not assigned", not merged.
    const std::vector<campaign::block_ref> none{};
    EXPECT_THROW((void)dist::collect_block_partials(spec, none, partials, 5),
                 std::runtime_error);
}

TEST(dist_wire, welford_state_survives_the_wire_bit_exactly) {
    // Doubles with awkward mantissas: merging parsed accumulators must
    // give bit-identical results to merging the originals.
    util::welford_accumulator acc;
    for (const double x : {1.0 / 3.0, 2.0 / 7.0, 1e-300, 3.14159265358979,
                           6.02214076e23, -0.1, 4096.0, 0.0})
        acc.add(x);

    campaign::cell_partial p;
    p.trials = 8;
    p.queries = acc;
    p.queries_to_compromise = util::welford_accumulator{};  // empty survives too
    p.leaked_bytes_valid = acc;

    dist::partial_report partial;
    partial.shard_index = 3;
    partial.shard_count = 8;
    partial.digest = 0x1234567890abcdefull;
    partial.blocks.push_back(dist::partial_block{42, 7, p});

    const auto parsed = dist::partial_from_json(dist::partial_to_json(partial));
    ASSERT_EQ(parsed.blocks.size(), 1u);
    EXPECT_EQ(parsed.shard_index, 3u);
    EXPECT_EQ(parsed.shard_count, 8u);
    EXPECT_EQ(parsed.digest, partial.digest);
    EXPECT_EQ(parsed.blocks[0].index, 42u);
    EXPECT_EQ(parsed.blocks[0].cell, 7u);

    const auto a = p.queries.save();
    const auto b = parsed.blocks[0].partial.queries.save();
    EXPECT_EQ(a.n, b.n);
    // Bit equality, not EXPECT_DOUBLE_EQ: the merge recurrence amplifies
    // any ulp the wire loses.
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
    const auto empty = parsed.blocks[0].partial.queries_to_compromise.save();
    EXPECT_EQ(empty.n, 0u);

    // Serialization is a fixed point.
    EXPECT_EQ(dist::partial_to_json(parsed), dist::partial_to_json(partial));
}

TEST(dist_wire, partial_parse_rejects_garbage) {
    EXPECT_THROW((void)dist::partial_from_json(""), std::runtime_error);
    EXPECT_THROW((void)dist::partial_from_json("{\"partial\":"),
                 std::runtime_error);
    EXPECT_THROW((void)dist::partial_from_json("{\"unexpected\":{}}"),
                 std::runtime_error);
    EXPECT_THROW(
        (void)dist::partial_from_json(
            "{\"partial\":{\"version\":999,\"shard\":0,\"shards\":1,"
            "\"spec_digest\":0,\"blocks\":[]}}"),
        std::runtime_error);
    EXPECT_THROW((void)parse_spec("{\"schemes\":[\"NOPE\"]}"),
                 std::invalid_argument);
}

TEST(dist_wire, campaign_report_serialize_parse_merge_round_trip) {
    // The satellite's oracle: take a real campaign, ship its two shard
    // halves through the text wire, merge the parsed partials, and demand
    // the display JSON of the merged report equal the single-process one.
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 5;
    spec.master_seed = 99;
    const auto reference = campaign::engine{spec}.run().to_json();

    // Round 0 split round-robin over two shards, as the orchestrator does.
    const auto blocks = campaign::blocks_for(spec);
    std::vector<dist::partial_report> parsed;
    for (std::uint32_t k = 0; k < 2; ++k) {
        std::vector<campaign::block_ref> slice;
        for (std::size_t p = k; p < blocks.size(); p += 2)
            slice.push_back(blocks[p]);
        campaign::engine engine{spec};
        const auto block_partials = engine.run_blocks(slice);
        dist::partial_report partial;
        partial.shard_index = k;
        partial.shard_count = 2;
        partial.digest = dist::spec_digest(spec);
        for (std::size_t i = 0; i < slice.size(); ++i)
            partial.blocks.push_back(dist::partial_block{
                slice[i].index, slice[i].cell, block_partials[i]});
        // Through the wire and back.
        parsed.push_back(
            dist::partial_from_json(dist::partial_to_json(partial)));
    }
    const auto collected =
        dist::collect_block_partials(spec, blocks, parsed, 0);
    EXPECT_EQ(campaign::assemble_report(spec, blocks, collected).to_json(),
              reference);
}

}  // namespace
}  // namespace pssp
