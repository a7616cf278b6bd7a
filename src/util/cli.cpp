#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pssp::util {

namespace {

[[noreturn]] void reject(std::string_view flag, std::string_view expected,
                         std::string_view text) {
    throw std::invalid_argument{std::string{flag} + " expects " +
                                std::string{expected} + ", got \"" +
                                std::string{text} + "\""};
}

}  // namespace

std::uint64_t parse_count(std::string_view flag, std::string_view text,
                          std::uint64_t min, std::uint64_t max) {
    // from_chars on an unsigned type takes neither '+' nor '-' nor
    // leading whitespace, and reports overflow instead of wrapping.
    std::uint64_t value = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || end != last || value < min || value > max)
        reject(flag,
               "a whole number from " + std::to_string(min) + " to " +
                   std::to_string(max),
               text);
    return value;
}

double parse_nonnegative(std::string_view flag, std::string_view text) {
    // from_chars is locale-independent; it does take '-', "inf" and
    // "nan", which the checks below refuse.
    double value = 0.0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || end != last || text.front() == '-' ||
        !std::isfinite(value))
        reject(flag, "a finite number >= 0", text);
    return value;
}

}  // namespace pssp::util
