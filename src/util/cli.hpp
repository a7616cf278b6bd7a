// Strict command-line numbers.
//
// strtoul/strtod read a prefix and report nothing: "2abc" reads as 2, "-1"
// wraps to the type's maximum, "abc" reads as 0. These parsers read the
// whole string or throw std::invalid_argument with a message naming the
// flag, so a typo stops the program instead of running a different
// campaign than the one asked for.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace pssp::util {

// A decimal whole number in [min, max]: digits only — no sign, no
// whitespace, nothing after the last digit.
[[nodiscard]] std::uint64_t parse_count(
    std::string_view flag, std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

// A finite decimal number >= 0 (seconds, a CI half-width): no sign, no
// "inf" or "nan", nothing after the number.
[[nodiscard]] double parse_nonnegative(std::string_view flag,
                                       std::string_view text);

}  // namespace pssp::util
