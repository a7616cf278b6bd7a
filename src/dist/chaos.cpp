#include "dist/chaos.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pssp::dist {

namespace {

[[noreturn]] void fail(std::size_t entry, const std::string& why) {
    throw std::invalid_argument{"fault plan: entry " + std::to_string(entry) +
                                ": " + why};
}

// One ":"-separated field of a rule: an integer coordinate or "*".
// `any` and `value` are outputs; throws on anything else.
void parse_coordinate(std::size_t entry, std::string_view token,
                      std::string_view rule, bool& any, std::uint64_t& value) {
    if (token == "*") {
        any = true;
        return;
    }
    if (token.empty())
        fail(entry, "empty coordinate in rule \"" + std::string{rule} + "\"");
    std::uint64_t parsed = 0;
    for (const char c : token) {
        if (c < '0' || c > '9')
            fail(entry, "bad coordinate \"" + std::string{token} +
                            "\" in rule \"" + std::string{rule} + "\"");
        parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
    }
    any = false;
    value = parsed;
}

fault_rule parse_rule(std::size_t entry, std::string_view rule) {
    // Split on ':' into at most 4 fields: fault[:shard[:round[:attempt]]].
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= rule.size(); ++i) {
        if (i == rule.size() || rule[i] == ':') {
            fields.push_back(rule.substr(start, i - start));
            start = i + 1;
        }
    }
    if (fields.empty() || fields.size() > 4)
        fail(entry,
             "rule \"" + std::string{rule} + "\" has too many fields");

    // Fault tokens are to_string's names; the timed kinds take "=<millis>".
    fault_rule out;
    const std::string_view fault = fields[0];
    for (auto v = static_cast<std::uint8_t>(fault_kind::crash);
         v <= static_cast<std::uint8_t>(fault_kind::net_stall_hb); ++v) {
        const auto kind = static_cast<fault_kind>(v);
        const std::string name = to_string(kind);
        const bool timed = kind == fault_kind::slow ||
                           kind == fault_kind::net_delay ||
                           kind == fault_kind::net_partition;
        const std::string token = timed ? name + "=" : name;
        if (timed ? fault.substr(0, token.size()) != token : fault != token)
            continue;
        out.kind = kind;
        if (timed) {
            bool any = false;
            parse_coordinate(entry, fault.substr(token.size()), rule, any,
                             out.param);
            if (any)
                fail(entry, name + " needs a millisecond count in rule \"" +
                                std::string{rule} + "\"");
        }
        break;
    }
    if (out.kind == fault_kind::none)
        fail(entry, "unknown fault \"" + std::string{fault} + "\" in rule \"" +
                        std::string{rule} + "\"");

    if (fields.size() > 1)
        parse_coordinate(entry, fields[1], rule, out.any_shard, out.shard);
    if (fields.size() > 2)
        parse_coordinate(entry, fields[2], rule, out.any_round, out.round);
    if (fields.size() > 3)
        parse_coordinate(entry, fields[3], rule, out.any_attempt, out.attempt);
    return out;
}

}  // namespace

const char* to_string(fault_kind kind) noexcept {
    switch (kind) {
        case fault_kind::none: return "none";
        case fault_kind::crash: return "crash";
        case fault_kind::crash_late: return "crash-late";
        case fault_kind::hang: return "hang";
        case fault_kind::trunc: return "trunc";
        case fault_kind::corrupt: return "corrupt";
        case fault_kind::wrong_block: return "wrong-block";
        case fault_kind::slow: return "slow";
        case fault_kind::net_die: return "net-die";
        case fault_kind::net_drop: return "net-drop";
        case fault_kind::net_garble: return "net-garble";
        case fault_kind::net_delay: return "net-delay";
        case fault_kind::net_partition: return "net-partition";
        case fault_kind::net_stall_hb: return "net-stall-hb";
    }
    return "?";
}

bool is_net_fault(fault_kind kind) noexcept {
    return kind >= fault_kind::net_die;
}

fault_plan parse_fault_plan(std::string_view text) {
    fault_plan plan;
    if (text.empty()) return plan;
    std::size_t entry = 1;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == ',') {
            const auto rule = text.substr(start, i - start);
            // An empty entry in a non-empty plan is a typo (stray comma),
            // and a typo'd chaos plan must never green-run.
            if (rule.empty()) fail(entry, "empty rule (stray comma?)");
            plan.rules.push_back(parse_rule(entry, rule));
            start = i + 1;
            ++entry;
        }
    }
    return plan;
}

fault_rule decide_fault(const fault_plan& plan, std::uint64_t shard,
                        std::uint64_t round, std::uint64_t attempt,
                        fault_family family) noexcept {
    for (const auto& rule : plan.rules) {
        if (family != fault_family::any &&
            is_net_fault(rule.kind) != (family == fault_family::net))
            continue;
        if (!rule.any_shard && rule.shard != shard) continue;
        if (!rule.any_round && rule.round != round) continue;
        if (!rule.any_attempt && rule.attempt != attempt) continue;
        return rule;
    }
    return fault_rule{};
}

}  // namespace pssp::dist
