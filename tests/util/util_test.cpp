// util module: statistics, byte packing, table rendering, strict
// command-line numbers.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pssp {
namespace {

TEST(stats, mean_and_stddev) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(util::mean(xs), 5.0);
    EXPECT_NEAR(util::stddev(xs), 2.138, 0.001);
}

TEST(stats, empty_and_single) {
    EXPECT_EQ(util::mean({}), 0.0);
    EXPECT_EQ(util::stddev({}), 0.0);
    const std::vector<double> one{3.0};
    EXPECT_EQ(util::stddev(one), 0.0);
    EXPECT_EQ(util::quantile(one, 0.5), 3.0);
}

TEST(stats, quantiles) {
    const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(util::quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(util::quantile(xs, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(util::quantile(xs, 0.5), 5.5);
}

TEST(stats, geomean) {
    const std::vector<double> xs{1, 10, 100};
    EXPECT_NEAR(util::geomean(xs), 10.0, 1e-9);
    EXPECT_THROW((void)util::geomean(std::vector<double>{1, 0}), std::invalid_argument);
}

TEST(stats, overhead_percent) {
    EXPECT_DOUBLE_EQ(util::overhead_percent(100, 101), 1.0);
    EXPECT_DOUBLE_EQ(util::overhead_percent(200, 190), -5.0);
    EXPECT_DOUBLE_EQ(util::overhead_percent(0, 10), 0.0);
}

TEST(stats, chi_square_uniform_detects_bias) {
    std::vector<std::size_t> fair(16, 1000);
    EXPECT_LT(util::chi_square_uniform(fair), 1e-9);
    std::vector<std::size_t> biased(16, 1000);
    biased[0] = 5000;
    EXPECT_GT(util::chi_square_uniform(biased),
              util::chi_square_critical_999(15));
}

TEST(stats, chi_square_critical_reasonable) {
    // Known reference values: chi2_{0.999}(255) ~ 330.5, chi2_{0.999}(15) ~ 37.7.
    EXPECT_NEAR(util::chi_square_critical_999(255), 330.5, 5.0);
    EXPECT_NEAR(util::chi_square_critical_999(15), 37.7, 1.5);
}

TEST(stats, accumulator_matches_batch) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    util::accumulator acc;
    for (const double x : xs) acc.add(x);
    EXPECT_DOUBLE_EQ(acc.mean(), util::mean(xs));
    EXPECT_NEAR(acc.stddev(), util::stddev(xs), 1e-12);
    EXPECT_EQ(acc.min(), 2);
    EXPECT_EQ(acc.max(), 9);
    EXPECT_EQ(acc.count(), xs.size());
    EXPECT_DOUBLE_EQ(acc.total(), 40.0);
}

TEST(stats, wilson_interval_reference_values) {
    // 8/10 successes at 95%: classic textbook check.
    const auto iv = util::wilson_interval(8, 10);
    EXPECT_NEAR(iv.lo, 0.490, 0.005);
    EXPECT_NEAR(iv.hi, 0.943, 0.005);
    // Degenerate proportions stay inside [0,1] (the normal approximation
    // would not) and still have nonzero width.
    const auto zero = util::wilson_interval(0, 50);
    EXPECT_DOUBLE_EQ(zero.lo, 0.0);
    EXPECT_GT(zero.hi, 0.0);
    EXPECT_LT(zero.hi, 0.1);
    const auto one = util::wilson_interval(50, 50);
    EXPECT_DOUBLE_EQ(one.hi, 1.0);
    EXPECT_LT(one.lo, 1.0);
    EXPECT_GT(one.lo, 0.9);
    // No data: vacuous bounds.
    const auto none = util::wilson_interval(3, 0);
    EXPECT_DOUBLE_EQ(none.lo, 0.0);
    EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

TEST(stats, wilson_interval_validates_z_before_the_empty_sample_return) {
    // Regression: the n == 0 early return used to precede the z check, so a
    // nonsensical confidence level was silently accepted exactly when the
    // sample was empty — and only blew up once data arrived.
    EXPECT_THROW((void)util::wilson_interval(0, 0, 0.0), std::invalid_argument);
    EXPECT_THROW((void)util::wilson_interval(0, 0, -1.96), std::invalid_argument);
    EXPECT_THROW((void)util::wilson_interval(5, 10, 0.0), std::invalid_argument);
    // Valid z on an empty sample keeps the vacuous-bounds contract.
    const auto none = util::wilson_interval(0, 0, 2.58);
    EXPECT_DOUBLE_EQ(none.lo, 0.0);
    EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

TEST(stats, interval_half_width) {
    EXPECT_DOUBLE_EQ((util::interval{0.25, 0.75}).half_width(), 0.25);
    EXPECT_DOUBLE_EQ((util::interval{}).half_width(), 0.0);
    EXPECT_DOUBLE_EQ((util::interval{0.0, 1.0}).half_width(), 0.5);
}

TEST(stats, wilson_interval_tightens_with_n) {
    const auto small = util::wilson_interval(5, 10);
    const auto large = util::wilson_interval(500, 1000);
    EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(stats, welford_merge_matches_single_stream) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9, 1, 12};
    util::welford_accumulator whole;
    for (const double x : xs) whole.add(x);

    util::welford_accumulator left, right;
    for (std::size_t i = 0; i < xs.size(); ++i)
        (i < 4 ? left : right).add(xs[i]);
    left.merge(right);

    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-12);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
    EXPECT_DOUBLE_EQ(left.total(), whole.total());
}

TEST(stats, welford_merge_with_empty) {
    util::welford_accumulator a, empty;
    a.add(3.0);
    a.add(5.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 4.0);
    EXPECT_DOUBLE_EQ(empty.min(), 3.0);
}

TEST(bytes, little_endian_roundtrip) {
    std::vector<std::uint8_t> buf(8, 0);
    util::store_le64(buf, 0x0123456789abcdefull);
    EXPECT_EQ(buf[0], 0xef);  // lowest byte first (the byte the attack
    EXPECT_EQ(buf[7], 0x01);  // guesses first)
    EXPECT_EQ(util::load_le64(buf), 0x0123456789abcdefull);
    util::store_le32(buf, 0xdeadbeef);
    EXPECT_EQ(util::load_le32(buf), 0xdeadbeefu);
    util::store_le16(buf, 0xcafe);
    EXPECT_EQ(util::load_le16(buf), 0xcafe);
}

TEST(bytes, byte_of_and_with_byte) {
    const std::uint64_t v = 0x1122334455667788ull;
    EXPECT_EQ(util::byte_of(v, 0), 0x88);
    EXPECT_EQ(util::byte_of(v, 7), 0x11);
    EXPECT_EQ(util::with_byte(v, 0, 0xff), 0x11223344556677ffull);
    EXPECT_EQ(util::with_byte(v, 7, 0x00), 0x0022334455667788ull);
}

TEST(bytes, hex_rendering) {
    const std::vector<std::uint8_t> data{0xde, 0xad, 0xbe, 0xef};
    EXPECT_EQ(util::to_hex(data), "de ad be ef");
    EXPECT_EQ(util::hex64(0x28), "0x0000000000000028");
    EXPECT_NE(util::hex_dump(data, 0x1000).find("001000"), std::string::npos);
}

TEST(table, renders_header_rows_and_padding) {
    util::text_table t{{"name", "value"}};
    t.add_row({"alpha", "1"});
    t.add_row({"much-longer-name", "2"});
    const auto out = t.render("title");
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("| alpha"), std::string::npos);
    EXPECT_NE(out.find("much-longer-name"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(table, short_rows_are_padded) {
    util::text_table t{{"a", "b", "c"}};
    t.add_row({"only-one"});
    EXPECT_NE(t.render().find("only-one"), std::string::npos);
}

TEST(table, bar_chart_scales_to_max) {
    util::bar_chart chart{"units", 10};
    chart.add("big", 100.0);
    chart.add("half", 50.0);
    const auto out = chart.render();
    EXPECT_NE(out.find("##########"), std::string::npos);  // full-width bar
    EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(table, formatters) {
    EXPECT_EQ(util::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(util::fmt_percent(0.246, 2), "0.25%");
    EXPECT_EQ(util::fmt_bytes(512), "512 B");
    EXPECT_EQ(util::fmt_bytes(2048), "2.00 KiB");
    EXPECT_EQ(util::fmt_bytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(json, emit_and_parse_round_trip) {
    std::string out;
    out += '{';
    util::append_kv(out, "name", std::string{"P-SSP"});
    util::append_kv(out, "count", std::uint64_t{42});
    util::append_kv(out, "rate", 0.125);
    util::append_kv_bool(out, "flag", true);
    util::append_kv_exact(out, "exact", 1.0 / 3.0);
    util::append_interval(out, "ci", util::interval{0.25, 0.75},
                          /*comma=*/false);
    out += '}';

    const auto doc = util::parse_json(out);
    EXPECT_EQ(doc.at("name").as_string(), "P-SSP");
    EXPECT_EQ(doc.at("count").as_u64(), 42u);
    EXPECT_DOUBLE_EQ(doc.at("rate").as_double(), 0.125);
    EXPECT_TRUE(doc.at("flag").as_bool());
    // Hexfloat channel is bit-exact, not approximately equal.
    EXPECT_EQ(doc.at("exact").as_double_exact(), 1.0 / 3.0);
    const auto& ci = doc.at("ci").elements();
    ASSERT_EQ(ci.size(), 2u);
    EXPECT_DOUBLE_EQ(ci[0].as_double(), 0.25);
    EXPECT_DOUBLE_EQ(ci[1].as_double(), 0.75);
}

TEST(json, parser_handles_structure_and_rejects_garbage) {
    const auto doc = util::parse_json(
        " { \"a\" : [ 1 , -2.5e3 , \"x\\\"y\" , null , false ] , \"b\" : {} } ");
    const auto& a = doc.at("a").elements();
    ASSERT_EQ(a.size(), 5u);
    EXPECT_EQ(a[0].as_u64(), 1u);
    EXPECT_DOUBLE_EQ(a[1].as_double(), -2500.0);
    EXPECT_EQ(a[2].as_string(), "x\"y");
    EXPECT_EQ(a[3].type(), util::json_value::kind::null);
    EXPECT_FALSE(a[4].as_bool());
    EXPECT_EQ(doc.at("b").members().size(), 0u);
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
    EXPECT_THROW((void)a[0].as_string(), std::runtime_error);

    // A negative count is a parse error, not a strtoull wraparound.
    EXPECT_THROW((void)util::parse_json("-2").as_u64(), std::runtime_error);
    EXPECT_DOUBLE_EQ(util::parse_json("-2").as_double(), -2.0);

    EXPECT_THROW((void)util::parse_json(""), std::runtime_error);
    EXPECT_THROW((void)util::parse_json("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW((void)util::parse_json("{\"a\":1} trailing"),
                 std::runtime_error);
    EXPECT_THROW((void)util::parse_json("[1, 2"), std::runtime_error);
    EXPECT_THROW((void)util::parse_json("truthy"), std::runtime_error);
}

TEST(json, rejects_trailing_garbage_with_a_position) {
    // A truncated or corrupt worker partial concatenated with junk must be
    // a loud, position-bearing parse error — never silently parsed as the
    // leading complete value.
    for (const char* bad : {"{}x", "{} x", "123x", "{\"a\":1}}", "[1,2]garbage",
                            "truex", "null0", "\"s\"\"t\"", "{}{}"}) {
        try {
            (void)util::parse_json(bad);
            FAIL() << "accepted: " << bad;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string{e.what()}.find("at byte"), std::string::npos)
                << "error must carry a position: " << e.what();
        }
    }
    // Trailing whitespace alone stays legal.
    EXPECT_NO_THROW((void)util::parse_json("{} \n\t "));
}

TEST(json, rejects_malformed_number_tokens_at_parse_time) {
    // Regression: number tokens used to be scanned greedily and validated
    // only in as_u64()/as_double(), so a corrupt numeric field that nobody
    // accessed slipped through the parse. The grammar is now enforced up
    // front.
    for (const char* bad :
         {"{\"n\":1e}", "{\"n\":-}", "{\"n\":1.2.3}", "{\"n\":1e+}",
          "{\"n\":01}", "{\"n\":.5}", "{\"n\":5.}", "{\"n\":--2}",
          "{\"n\":1e5e5}", "[-]"}) {
        EXPECT_THROW((void)util::parse_json(bad), std::runtime_error) << bad;
    }
    // The full legal grammar still parses.
    EXPECT_EQ(util::parse_json("0").as_u64(), 0u);
    EXPECT_DOUBLE_EQ(util::parse_json("-0.5e-2").as_double(), -0.005);
    EXPECT_DOUBLE_EQ(util::parse_json("1E+3").as_double(), 1000.0);
    EXPECT_DOUBLE_EQ(util::parse_json("0.125").as_double(), 0.125);
    EXPECT_EQ(util::parse_json("18446744073709551615").as_u64(),
              18446744073709551615ull);
}

TEST(stats, welford_save_restore_is_bit_exact) {
    util::welford_accumulator acc;
    for (const double x : {0.1, 0.2, 0.30000000000000004, -7.25, 1e18})
        acc.add(x);
    const auto restored = util::welford_accumulator::restore(acc.save());
    EXPECT_EQ(restored.count(), acc.count());
    EXPECT_EQ(restored.mean(), acc.mean());
    EXPECT_EQ(restored.stddev(), acc.stddev());
    EXPECT_EQ(restored.min(), acc.min());
    EXPECT_EQ(restored.max(), acc.max());
    EXPECT_EQ(restored.total(), acc.total());
    // Continuing to add on the restored copy tracks the original exactly.
    auto a = acc;
    auto b = restored;
    a.add(3.5);
    b.add(3.5);
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.stddev(), b.stddev());
}

TEST(cli, parse_count_reads_the_whole_string_in_range) {
    EXPECT_EQ(util::parse_count("--trials", "0"), 0u);
    EXPECT_EQ(util::parse_count("--trials", "112"), 112u);
    EXPECT_EQ(util::parse_count("--seed", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(util::parse_count("--workers", "1", 1, 8), 1u);
    EXPECT_EQ(util::parse_count("--port", "65535", 0, 65535), 65535u);
    for (const char* bad : {"", "2abc", "-1", "+1", " 1", "1 ", "0x10", "1.5",
                            "abc", "18446744073709551616"})
        EXPECT_THROW((void)util::parse_count("--trials", bad),
                     std::invalid_argument)
            << '"' << bad << '"';
    EXPECT_THROW((void)util::parse_count("--workers", "0", 1, 8),
                 std::invalid_argument);
    EXPECT_THROW((void)util::parse_count("--port", "65536", 0, 65535),
                 std::invalid_argument);
}

TEST(cli, parse_nonnegative_takes_finite_numbers_from_zero) {
    EXPECT_EQ(util::parse_nonnegative("--timeout", "0"), 0.0);
    EXPECT_EQ(util::parse_nonnegative("--timeout", "2.5"), 2.5);
    EXPECT_EQ(util::parse_nonnegative("--backoff", ".05"), 0.05);
    EXPECT_EQ(util::parse_nonnegative("--target", "5e-2"), 0.05);
    for (const char* bad : {"", "abc", "-1", "-0", "+1", " 1", "1s", "inf",
                            "nan", "1e999", "1.2.3"})
        EXPECT_THROW((void)util::parse_nonnegative("--timeout", bad),
                     std::invalid_argument)
            << '"' << bad << '"';
}

TEST(cli, errors_name_the_flag_and_the_input) {
    try {
        (void)util::parse_count("--shards", "-1", 0, 4294967295u);
        FAIL() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "--shards expects a whole number from 0 to 4294967295, "
                     "got \"-1\"");
    }
    try {
        (void)util::parse_nonnegative("--timeout", "abc");
        FAIL() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(),
                     "--timeout expects a finite number >= 0, got \"abc\"");
    }
}

}  // namespace
}  // namespace pssp
