// The deterministic fault-plan grammar: parse, defaults, matching
// precedence, and loud rejection of malformed plans. Pure unit tests —
// the end-to-end injection paths (a worker actually crashing/hanging/
// corrupting on schedule) are exercised by tests/dist/supervisor_test.cpp
// through real fork/exec.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "dist/chaos.hpp"

namespace pssp {
namespace {

TEST(dist_chaos, parses_every_fault_kind) {
    const auto plan = dist::parse_fault_plan(
        "crash,crash-late,hang,trunc,corrupt,wrong-block,slow=250");
    ASSERT_EQ(plan.rules.size(), 7u);
    EXPECT_EQ(plan.rules[0].kind, dist::fault_kind::crash);
    EXPECT_EQ(plan.rules[1].kind, dist::fault_kind::crash_late);
    EXPECT_EQ(plan.rules[2].kind, dist::fault_kind::hang);
    EXPECT_EQ(plan.rules[3].kind, dist::fault_kind::trunc);
    EXPECT_EQ(plan.rules[4].kind, dist::fault_kind::corrupt);
    EXPECT_EQ(plan.rules[5].kind, dist::fault_kind::wrong_block);
    EXPECT_EQ(plan.rules[6].kind, dist::fault_kind::slow);
    EXPECT_EQ(plan.rules[6].param, 250u);
}

TEST(dist_chaos, defaults_any_shard_any_round_first_attempt_only) {
    const auto plan = dist::parse_fault_plan("crash");
    ASSERT_EQ(plan.rules.size(), 1u);
    // Any shard, any round — but first attempt only, so the retry heals
    // unless the plan explicitly says otherwise.
    EXPECT_NE(dist::decide_fault(plan, 0, 0, 1).kind, dist::fault_kind::none);
    EXPECT_NE(dist::decide_fault(plan, 7, 42, 1).kind, dist::fault_kind::none);
    EXPECT_EQ(dist::decide_fault(plan, 0, 0, 2).kind, dist::fault_kind::none);
}

TEST(dist_chaos, full_coordinates_match_exactly) {
    const auto plan = dist::parse_fault_plan("corrupt:2:3:1");
    EXPECT_EQ(dist::decide_fault(plan, 2, 3, 1).kind,
              dist::fault_kind::corrupt);
    EXPECT_EQ(dist::decide_fault(plan, 1, 3, 1).kind, dist::fault_kind::none);
    EXPECT_EQ(dist::decide_fault(plan, 2, 2, 1).kind, dist::fault_kind::none);
    EXPECT_EQ(dist::decide_fault(plan, 2, 3, 2).kind, dist::fault_kind::none);
}

TEST(dist_chaos, wildcard_attempt_matches_every_attempt) {
    const auto plan = dist::parse_fault_plan("crash:1:*:*");
    for (std::uint64_t attempt = 1; attempt <= 5; ++attempt)
        EXPECT_EQ(dist::decide_fault(plan, 1, 9, attempt).kind,
                  dist::fault_kind::crash);
    EXPECT_EQ(dist::decide_fault(plan, 0, 9, 1).kind, dist::fault_kind::none);
}

TEST(dist_chaos, first_matching_rule_wins) {
    const auto plan = dist::parse_fault_plan("hang:0,crash:*");
    EXPECT_EQ(dist::decide_fault(plan, 0, 0, 1).kind, dist::fault_kind::hang);
    EXPECT_EQ(dist::decide_fault(plan, 1, 0, 1).kind, dist::fault_kind::crash);
}

TEST(dist_chaos, parses_every_net_fault_kind) {
    const auto plan = dist::parse_fault_plan(
        "net-die,net-drop,net-garble,net-delay=40,net-partition=600,"
        "net-stall-hb");
    ASSERT_EQ(plan.rules.size(), 6u);
    EXPECT_EQ(plan.rules[0].kind, dist::fault_kind::net_die);
    EXPECT_EQ(plan.rules[1].kind, dist::fault_kind::net_drop);
    EXPECT_EQ(plan.rules[2].kind, dist::fault_kind::net_garble);
    EXPECT_EQ(plan.rules[3].kind, dist::fault_kind::net_delay);
    EXPECT_EQ(plan.rules[3].param, 40u);
    EXPECT_EQ(plan.rules[4].kind, dist::fault_kind::net_partition);
    EXPECT_EQ(plan.rules[4].param, 600u);
    EXPECT_EQ(plan.rules[5].kind, dist::fault_kind::net_stall_hb);
    for (const auto& rule : plan.rules)
        EXPECT_TRUE(dist::is_net_fault(rule.kind))
            << dist::to_string(rule.kind);
}

TEST(dist_chaos, fault_family_selectors_split_process_and_net_rules) {
    // A mixed plan: each transport layer must see only its own family,
    // with first-match-wins preserved *within* the family even when a
    // foreign-family rule sits in front.
    const auto plan =
        dist::parse_fault_plan("net-drop:0,crash:0,net-stall-hb:*,hang:*");
    constexpr auto process = dist::fault_family::process;
    constexpr auto net = dist::fault_family::net;
    EXPECT_EQ(dist::decide_fault(plan, 0, 0, 1, process).kind,
              dist::fault_kind::crash);
    EXPECT_EQ(dist::decide_fault(plan, 3, 0, 1, process).kind,
              dist::fault_kind::hang);
    EXPECT_EQ(dist::decide_fault(plan, 0, 0, 1, net).kind,
              dist::fault_kind::net_drop);
    EXPECT_EQ(dist::decide_fault(plan, 3, 0, 1, net).kind,
              dist::fault_kind::net_stall_hb);
    // Unrestricted decide_fault still honours plain plan order.
    EXPECT_EQ(dist::decide_fault(plan, 0, 0, 1).kind,
              dist::fault_kind::net_drop);
    // And a family with no matching rule yields none.
    const auto net_only = dist::parse_fault_plan("net-garble:1");
    EXPECT_EQ(dist::decide_fault(net_only, 1, 0, 1, process).kind,
              dist::fault_kind::none);
}

TEST(dist_chaos, empty_plan_is_legal_but_empty_entries_are_not) {
    EXPECT_TRUE(dist::parse_fault_plan("").empty());
    // A stray comma is a typo, and a typo'd chaos plan must never
    // green-run; the error names which entry is blank.
    try {
        (void)dist::parse_fault_plan("crash,,trunc");
        FAIL() << "empty entry must throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "fault plan: entry 2: empty rule (stray comma?)");
    }
    try {
        (void)dist::parse_fault_plan("crash,");
        FAIL() << "trailing comma must throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "fault plan: entry 2: empty rule (stray comma?)");
    }
}

// Every diagnostic carries the 1-based entry index and the offending
// token, so a CI chaos log points straight at the typo.
TEST(dist_chaos, malformed_plans_throw_naming_entry_and_token) {
    const auto expect_message = [](std::string_view plan,
                                   std::string_view want) {
        try {
            (void)dist::parse_fault_plan(plan);
            FAIL() << "plan \"" << plan << "\" must throw";
        } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(), std::string{want}.c_str()) << plan;
        }
    };
    expect_message("bogus:1",
                   "fault plan: entry 1: unknown fault \"bogus\" in rule "
                   "\"bogus:1\"");
    expect_message("crash,hang,bogus:1",
                   "fault plan: entry 3: unknown fault \"bogus\" in rule "
                   "\"bogus:1\"");
    expect_message("crash,slow=*",
                   "fault plan: entry 2: slow needs a millisecond count in "
                   "rule \"slow=*\"");
    expect_message("slow=",
                   "fault plan: entry 1: empty coordinate in rule \"slow=\"");
    expect_message("net-delay=x",
                   "fault plan: entry 1: bad coordinate \"x\" in rule "
                   "\"net-delay=x\"");
    expect_message("net-partition=*",
                   "fault plan: entry 1: net-partition needs a millisecond "
                   "count in rule \"net-partition=*\"");
    expect_message("crash:x",
                   "fault plan: entry 1: bad coordinate \"x\" in rule "
                   "\"crash:x\"");
    expect_message("hang,crash:1:2:3:4",
                   "fault plan: entry 2: rule \"crash:1:2:3:4\" has too many "
                   "fields");
    expect_message("crash::1",
                   "fault plan: entry 1: empty coordinate in rule "
                   "\"crash::1\"");
}

}  // namespace
}  // namespace pssp
