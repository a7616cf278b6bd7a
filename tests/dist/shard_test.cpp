// Sharding over the canonical block space: block structure, and the
// in-process half of the byte-identity oracle — a round's blocks split
// round-robin across shards, run separately, and collected back reproduce
// the single-process report exactly; lost, duplicate, foreign and
// miscounted blocks are rejected.

#include <gtest/gtest.h>

#include "campaign/engine.hpp"
#include "dist/wire.hpp"

namespace pssp {
namespace {

campaign::campaign_spec tiny_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::byte_by_byte,
                    attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 3;
    spec.master_seed = 77;
    // A tight budget keeps the many-trial identity runs fast; byte-identity
    // is a structural property, not a function of attack success rates.
    spec.query_budget = 600;
    spec.jobs = 2;
    return spec;
}

// Runs a fixed campaign's round 0 as `count` shards: blocks_for(spec)
// split round-robin by position, as the orchestrator splits every round,
// each slice through its own engine. Shards past the block count report
// empty partials.
std::vector<dist::partial_report> run_split(const campaign::campaign_spec& spec,
                                            std::uint32_t count) {
    const auto blocks = campaign::blocks_for(spec);
    std::vector<dist::partial_report> partials;
    for (std::uint32_t k = 0; k < count; ++k) {
        std::vector<campaign::block_ref> slice;
        for (std::size_t p = k; p < blocks.size(); p += count)
            slice.push_back(blocks[p]);
        campaign::engine engine{spec};
        const auto block_partials = engine.run_blocks(slice);
        dist::partial_report partial;
        partial.shard_index = k;
        partial.shard_count = count;
        partial.digest = dist::spec_digest(spec);
        for (std::size_t i = 0; i < slice.size(); ++i)
            partial.blocks.push_back(dist::partial_block{
                slice[i].index, slice[i].cell, block_partials[i]});
        partials.push_back(std::move(partial));
    }
    return partials;
}

// Collects round 0 over the whole block space and reduces it.
std::string merged_json(const campaign::campaign_spec& spec,
                        std::span<const dist::partial_report> partials) {
    const auto blocks = campaign::blocks_for(spec);
    return campaign::assemble_report(
               spec, blocks,
               dist::collect_block_partials(spec, blocks, partials, 0))
        .to_json();
}

TEST(dist_shard, blocks_cover_the_trial_space_cell_major) {
    auto spec = tiny_spec();
    spec.trials_per_cell = 150;  // 3 blocks per cell: 64 + 64 + 22
    const auto blocks = campaign::blocks_for(spec);
    ASSERT_EQ(blocks.size(), spec.cell_count() * 3);
    std::uint64_t expected_trial = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(blocks[i].index, i);
        EXPECT_EQ(blocks[i].cell, i / 3);
        EXPECT_EQ(blocks[i].first_trial, expected_trial);
        EXPECT_EQ(blocks[i].trials, (i % 3 == 2) ? 22u : 64u);
        expected_trial += blocks[i].trials;
    }
    EXPECT_EQ(expected_trial, spec.trial_count());
}

TEST(dist_shard, merged_shard_partials_reproduce_single_process_report) {
    // The oracle, in-process: run each shard's blocks through
    // engine::run_blocks, collect, and demand the merged report's JSON be
    // byte-identical to engine::run() — at shard counts below, equal to,
    // and above the block count (8 blocks here).
    auto spec = tiny_spec();
    spec.trials_per_cell = 70;  // 2 ragged blocks per cell
    const auto reference = campaign::engine{spec}.run().to_json();
    for (const std::uint32_t count : {1u, 2u, 4u, 8u, 16u})
        EXPECT_EQ(merged_json(spec, run_split(spec, count)), reference)
            << "shard count " << count;
}

TEST(dist_shard, ragged_last_blocks_identical_at_every_shard_count) {
    // The reduce_block_trials boundary under sharding: trial counts below,
    // at, and just past the block size must merge byte-identically at
    // shard counts {1, 2, 4, 8} — the ragged last block cannot depend on
    // which process ran it.
    for (const std::uint64_t trials : {1ull, 63ull, 64ull, 65ull, 127ull}) {
        campaign::campaign_spec spec;
        spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
        spec.attacks = {attack::attack_kind::leak_replay};
        spec.targets = {workload::target_kind::nginx};
        spec.trials_per_cell = trials;
        spec.master_seed = 13;
        spec.query_budget = 600;
        spec.jobs = 2;
        const auto reference = campaign::engine{spec}.run().to_json();
        for (const std::uint32_t count : {1u, 2u, 4u, 8u})
            EXPECT_EQ(merged_json(spec, run_split(spec, count)), reference)
                << "trials_per_cell=" << trials << " shards=" << count;
    }
}

TEST(dist_shard, collect_rejects_lost_duplicate_foreign_and_miscounted_blocks) {
    auto spec = tiny_spec();
    spec.trials_per_cell = 2;
    const auto partials = run_split(spec, 1);
    EXPECT_NO_THROW((void)merged_json(spec, partials));

    {  // a lost block fails the merge, loudly
        auto broken = partials;
        broken[0].blocks.pop_back();
        EXPECT_THROW((void)merged_json(spec, broken), std::runtime_error);
    }
    {  // a block reported twice fails
        auto broken = partials;
        broken[0].blocks.push_back(broken[0].blocks.front());
        EXPECT_THROW((void)merged_json(spec, broken), std::runtime_error);
    }
    {  // a shard that ran a different campaign fails
        auto broken = partials;
        broken[0].digest ^= 1;
        EXPECT_THROW((void)merged_json(spec, broken), std::runtime_error);
    }
    {  // a partial claiming the wrong trial count fails
        auto broken = partials;
        broken[0].blocks[0].partial.trials += 1;
        EXPECT_THROW((void)merged_json(spec, broken), std::runtime_error);
    }
}

}  // namespace
}  // namespace pssp
