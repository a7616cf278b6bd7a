#include "store/format.hpp"

#include <stdexcept>

#include "util/bytes.hpp"
#include "util/json.hpp"

namespace pssp::store {

namespace {

// Every ingest.log line is {"e":<body>,"fnv":"<16 hex>"} — fixed-width
// armor, so the hashed body substring is recoverable without parsing.
constexpr std::string_view line_prefix = "{\"e\":";
constexpr std::string_view fnv_prefix = ",\"fnv\":\"";
constexpr std::size_t fnv_hex_digits = 16;
constexpr std::size_t line_suffix_size = fnv_prefix.size() + fnv_hex_digits + 2;

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error{"store: " + what};
}

const char* kind_name(entry_kind kind) {
    switch (kind) {
        case entry_kind::blocks: return "blocks";
        case entry_kind::round: return "round";
        case entry_kind::metrics: return "metrics";
        case entry_kind::complete: return "complete";
    }
    throw std::invalid_argument{"store: unknown entry_kind"};
}

std::string entry_body(const log_entry& entry) {
    std::string body = "{";
    util::append_kv(body, "k", std::string{kind_name(entry.kind)});
    util::append_kv(body, "seq", entry.seq);
    switch (entry.kind) {
        case entry_kind::blocks: {
            util::append_kv(body, "round", entry.round);
            body += "\"blocks\":[";
            for (std::size_t i = 0; i < entry.blocks.size(); ++i) {
                if (i > 0) body += ',';
                dist::append_partial_block(body, entry.blocks[i]);
            }
            body += "]}";
            return body;
        }
        case entry_kind::round: {
            body += "\"summary\":";
            body += obs::round_summary_json(entry.summary);
            body += '}';
            return body;
        }
        case entry_kind::metrics: {
            body += "\"metrics\":";
            body += entry.metrics;
            body += '}';
            return body;
        }
        case entry_kind::complete: {
            util::append_kv(body, "rounds", entry.done.rounds);
            body += "\"report_fnv\":\"";
            util::append_hex16(body, entry.done.report_fnv);
            body += "\"}";
            return body;
        }
    }
    throw std::invalid_argument{"store: unknown entry_kind"};
}

}  // namespace

log_entry log_entry::make_blocks(std::uint64_t seq, std::uint64_t round,
                                 std::span<const dist::partial_block> blocks) {
    log_entry e;
    e.kind = entry_kind::blocks;
    e.seq = seq;
    e.round = round;
    e.blocks.assign(blocks.begin(), blocks.end());
    return e;
}

log_entry log_entry::make_round(std::uint64_t seq,
                                const obs::round_summary& summary) {
    log_entry e;
    e.kind = entry_kind::round;
    e.seq = seq;
    e.summary = summary;
    return e;
}

log_entry log_entry::make_metrics(std::uint64_t seq, std::string metrics_json) {
    log_entry e;
    e.kind = entry_kind::metrics;
    e.seq = seq;
    e.metrics = std::move(metrics_json);
    return e;
}

log_entry log_entry::make_complete(std::uint64_t seq, std::uint64_t rounds,
                                   std::uint64_t report_fnv) {
    log_entry e;
    e.kind = entry_kind::complete;
    e.seq = seq;
    e.done = completion{seq, rounds, report_fnv};
    return e;
}

std::string encode_log_line(const log_entry& entry) {
    const std::string body = entry_body(entry);
    std::string line;
    line.reserve(body.size() + line_prefix.size() + line_suffix_size + 1);
    line += line_prefix;
    line += body;
    line += fnv_prefix;
    util::append_hex16(line, util::fnv1a64(body));
    line += "\"}\n";
    return line;
}

obs::round_summary round_summary_from_json(const util::json_value& v) {
    obs::round_summary s;
    s.round = v.at("round").as_u64();
    s.blocks = v.at("blocks").as_u64();
    s.trials = v.at("trials").as_u64();
    s.cumulative_trials = v.at("cumulative_trials").as_u64();
    s.max_halfwidth = v.at("max_halfwidth").as_double();
    s.widest_cell = v.at("widest_cell").as_string();
    s.wall_seconds = v.at("wall_seconds").as_double();
    if (const auto* shards = v.find("shards")) {
        for (const auto& e : shards->elements()) {
            obs::shard_time t;
            t.shard = static_cast<std::uint32_t>(e.at("shard").as_u64());
            t.wall_seconds = e.at("wall").as_double();
            t.user_seconds = e.at("user").as_double();
            t.sys_seconds = e.at("sys").as_double();
            s.shards.push_back(t);
        }
    }
    if (const auto* rec = v.find("recovery")) {
        s.retries = rec->at("retries").as_u64();
        s.requeued_blocks = rec->at("requeued_blocks").as_u64();
        s.timeouts = rec->at("timeouts").as_u64();
        s.resumed = rec->at("resumed").as_bool();
    }
    return s;
}

log_entry decode_log_line(const std::string& path, std::size_t line_no,
                          std::string_view line) {
    auto bad = [&path, line_no](const std::string& why) -> std::runtime_error {
        return std::runtime_error{"store: " + path + " line " +
                                  std::to_string(line_no) + ": " + why};
    };
    if (line.size() < line_prefix.size() + line_suffix_size + 2 ||
        line.substr(0, line_prefix.size()) != line_prefix)
        throw bad("truncated or malformed entry");
    const std::string_view suffix = line.substr(line.size() - line_suffix_size);
    if (suffix.substr(0, fnv_prefix.size()) != fnv_prefix ||
        suffix.substr(line_suffix_size - 2) != "\"}")
        throw bad("truncated or malformed entry (bad integrity suffix)");
    std::uint64_t expected = 0;
    if (!util::parse_hex16(suffix.substr(fnv_prefix.size(), fnv_hex_digits),
                           expected))
        throw bad("malformed integrity hash");
    const std::string_view body = line.substr(
        line_prefix.size(), line.size() - line_prefix.size() - line_suffix_size);
    if (util::fnv1a64(body) != expected)
        throw bad("integrity hash mismatch — entry is corrupt");

    log_entry entry;
    try {
        const auto doc = util::parse_json(body);
        const auto& kind = doc.at("k").as_string();
        entry.seq = doc.at("seq").as_u64();
        if (kind == "blocks") {
            entry.kind = entry_kind::blocks;
            entry.round = doc.at("round").as_u64();
            for (const auto& b : doc.at("blocks").elements())
                entry.blocks.push_back(dist::partial_block_from_json(b));
        } else if (kind == "round") {
            entry.kind = entry_kind::round;
            entry.summary = round_summary_from_json(doc.at("summary"));
        } else if (kind == "metrics") {
            entry.kind = entry_kind::metrics;
            // The snapshot travels verbatim: the header's key order is
            // fixed, so the bytes after the first "metrics": up to the
            // body's closing brace are exactly what was ingested (the
            // parse above already validated them).
            (void)doc.at("metrics");
            constexpr std::string_view marker = "\"metrics\":";
            const auto pos = body.find(marker);
            entry.metrics = std::string{body.substr(
                pos + marker.size(), body.size() - pos - marker.size() - 1)};
        } else if (kind == "complete") {
            entry.kind = entry_kind::complete;
            entry.done.seq = entry.seq;
            entry.done.rounds = doc.at("rounds").as_u64();
            if (!util::parse_hex16(doc.at("report_fnv").as_string(),
                                   entry.done.report_fnv))
                throw std::runtime_error{"bad report_fnv"};
        } else {
            throw std::runtime_error{"unknown entry kind \"" + kind + "\""};
        }
    } catch (const std::exception& e) {
        throw bad(std::string{"unreadable entry: "} + e.what());
    }
    return entry;
}

std::string encode_manifest(const manifest& m) {
    std::string out = "{\"store\":{";
    util::append_kv(out, "version", static_cast<std::uint64_t>(m.version));
    util::append_kv(out, "spec_digest", m.spec_digest);
    out += "\"spec\":";
    dist::append_spec_object(out, m.spec);
    out += "}}\n";
    return out;
}

manifest decode_manifest(const std::string& path, std::string_view text) {
    manifest m;
    try {
        const auto doc = util::parse_json(text);
        const auto& s = doc.at("store");
        m.version = static_cast<std::uint32_t>(s.at("version").as_u64());
        if (m.version != store_format_version)
            throw std::runtime_error{"store format version " +
                                     std::to_string(m.version) + " != " +
                                     std::to_string(store_format_version)};
        m.spec_digest = s.at("spec_digest").as_u64();
        m.spec = dist::spec_from_object(s.at("spec"));
    } catch (const std::exception& e) {
        fail(path + " is unreadable: " + e.what());
    }
    return m;
}

}  // namespace pssp::store
