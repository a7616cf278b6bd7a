#include "store/format.hpp"

#include <cstdio>
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

void append_hexdouble(std::string& out, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%a\"", value);
    out += buf;
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
    util::append_kv(out, "compacted_seq", m.compacted_seq);
    util::append_kv_bool(out, "complete", m.complete);
    out += "\"spec\":";
    dist::append_spec_object(out, m.spec);
    out += ",\"segments\":[";
    for (std::size_t i = 0; i < m.segments.size(); ++i) {
        const auto& s = m.segments[i];
        if (i > 0) out += ',';
        out += '{';
        util::append_kv(out, "file", s.file);
        util::append_kv(out, "first_seq", s.first_seq);
        util::append_kv(out, "last_seq", s.last_seq);
        util::append_kv(out, "block_rows", s.block_rows);
        util::append_kv(out, "round_rows", s.round_rows);
        out += "\"fnv\":\"";
        util::append_hex16(out, s.fnv);
        out += "\"}";
    }
    out += "]}}\n";
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
        m.compacted_seq = s.at("compacted_seq").as_u64();
        m.complete = s.at("complete").as_bool();
        m.spec = dist::spec_from_object(s.at("spec"));
        for (const auto& e : s.at("segments").elements()) {
            segment_info info;
            info.file = e.at("file").as_string();
            info.first_seq = e.at("first_seq").as_u64();
            info.last_seq = e.at("last_seq").as_u64();
            info.block_rows = e.at("block_rows").as_u64();
            info.round_rows = e.at("round_rows").as_u64();
            if (!util::parse_hex16(e.at("fnv").as_string(), info.fnv))
                throw std::runtime_error{"bad segment fnv"};
            m.segments.push_back(std::move(info));
        }
    } catch (const std::exception& e) {
        fail(path + " is unreadable: " + e.what());
    }
    return m;
}

namespace {

// ---- column emit helpers ----

template <class Row, class Get>
void append_u64_column(std::string& out, const char* key,
                       std::span<const Row> rows, Get get, bool comma = true) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(static_cast<std::uint64_t>(get(rows[i])));
    }
    out += ']';
    if (comma) out += ',';
}

template <class Row, class Get>
void append_hex_column(std::string& out, const char* key,
                       std::span<const Row> rows, Get get, bool comma = true) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) out += ',';
        append_hexdouble(out, get(rows[i]));
    }
    out += ']';
    if (comma) out += ',';
}

template <class Row, class Get>
void append_string_column(std::string& out, const char* key,
                          std::span<const Row> rows, Get get,
                          bool comma = true) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += util::json_escape(get(rows[i]));
        out += '"';
    }
    out += ']';
    if (comma) out += ',';
}

// A Welford accumulator column group: six parallel arrays of its raw
// recurrence state, n as integers, the doubles hexfloat-exact.
template <class Get>
void append_welford_columns(std::string& out, const char* key,
                            std::span<const block_row> rows, Get get,
                            bool comma = true) {
    out += '"';
    out += key;
    out += "\":{";
    append_u64_column(out, "n", rows,
                      [&get](const block_row& r) { return get(r).save().n; });
    append_hex_column(out, "mean", rows,
                      [&get](const block_row& r) { return get(r).save().mean; });
    append_hex_column(out, "m2", rows,
                      [&get](const block_row& r) { return get(r).save().m2; });
    append_hex_column(out, "min", rows,
                      [&get](const block_row& r) { return get(r).save().min; });
    append_hex_column(out, "max", rows,
                      [&get](const block_row& r) { return get(r).save().max; });
    append_hex_column(
        out, "total", rows,
        [&get](const block_row& r) { return get(r).save().total; },
        /*comma=*/false);
    out += '}';
    if (comma) out += ',';
}

// ---- column parse helpers ----

std::vector<std::uint64_t> u64_column(const util::json_value& table,
                                      const char* key, std::size_t expect) {
    std::vector<std::uint64_t> out;
    for (const auto& e : table.at(key).elements()) out.push_back(e.as_u64());
    if (out.size() != expect)
        throw std::runtime_error{std::string{"column \""} + key +
                                 "\" length mismatch"};
    return out;
}

std::vector<double> hex_column(const util::json_value& table, const char* key,
                               std::size_t expect) {
    std::vector<double> out;
    for (const auto& e : table.at(key).elements())
        out.push_back(e.as_double_exact());
    if (out.size() != expect)
        throw std::runtime_error{std::string{"column \""} + key +
                                 "\" length mismatch"};
    return out;
}

util::welford_accumulator welford_at(const util::json_value& group,
                                     std::size_t i) {
    util::welford_accumulator::state s;
    s.n = group.at("n").elements().at(i).as_u64();
    s.mean = group.at("mean").elements().at(i).as_double_exact();
    s.m2 = group.at("m2").elements().at(i).as_double_exact();
    s.min = group.at("min").elements().at(i).as_double_exact();
    s.max = group.at("max").elements().at(i).as_double_exact();
    s.total = group.at("total").elements().at(i).as_double_exact();
    return util::welford_accumulator::restore(s);
}

}  // namespace

std::string encode_segment(std::span<const block_row> blocks,
                           std::span<const round_row> rounds) {
    std::string out;
    out.reserve(256 + blocks.size() * 512 + rounds.size() * 256);
    out += "{\"segment\":{";
    util::append_kv(out, "version",
                    static_cast<std::uint64_t>(store_format_version));
    util::append_kv(out, "block_rows", blocks.size());
    util::append_kv(out, "round_rows", rounds.size());

    out += "\"blocks\":{";
    append_u64_column(out, "seq", blocks,
                      [](const block_row& r) { return r.seq; });
    append_u64_column(out, "round", blocks,
                      [](const block_row& r) { return r.round; });
    append_u64_column(out, "index", blocks,
                      [](const block_row& r) { return r.block.index; });
    append_u64_column(out, "cell", blocks,
                      [](const block_row& r) { return r.block.cell; });
    append_u64_column(out, "trials", blocks,
                      [](const block_row& r) { return r.block.partial.trials; });
    append_u64_column(out, "hijacks", blocks, [](const block_row& r) {
        return r.block.partial.hijacks;
    });
    append_u64_column(out, "detections", blocks, [](const block_row& r) {
        return r.block.partial.detections;
    });
    append_u64_column(out, "canary_detections", blocks, [](const block_row& r) {
        return r.block.partial.canary_detections;
    });
    append_u64_column(out, "other_crashes", blocks, [](const block_row& r) {
        return r.block.partial.other_crashes;
    });
    append_welford_columns(
        out, "queries", blocks,
        [](const block_row& r) -> const util::welford_accumulator& {
            return r.block.partial.queries;
        });
    append_welford_columns(
        out, "queries_to_compromise", blocks,
        [](const block_row& r) -> const util::welford_accumulator& {
            return r.block.partial.queries_to_compromise;
        });
    append_welford_columns(
        out, "leaked_bytes_valid", blocks,
        [](const block_row& r) -> const util::welford_accumulator& {
            return r.block.partial.leaked_bytes_valid;
        },
        /*comma=*/false);
    out += "},";

    out += "\"rounds\":{";
    append_u64_column(out, "seq", rounds,
                      [](const round_row& r) { return r.seq; });
    append_u64_column(out, "round", rounds,
                      [](const round_row& r) { return r.summary.round; });
    append_u64_column(out, "blocks", rounds,
                      [](const round_row& r) { return r.summary.blocks; });
    append_u64_column(out, "trials", rounds,
                      [](const round_row& r) { return r.summary.trials; });
    append_u64_column(out, "cumulative_trials", rounds, [](const round_row& r) {
        return r.summary.cumulative_trials;
    });
    append_hex_column(out, "max_halfwidth", rounds, [](const round_row& r) {
        return r.summary.max_halfwidth;
    });
    append_string_column(
        out, "widest_cell", rounds,
        [](const round_row& r) -> const std::string& {
            return r.summary.widest_cell;
        });
    append_hex_column(out, "wall_seconds", rounds, [](const round_row& r) {
        return r.summary.wall_seconds;
    });
    append_u64_column(out, "retries", rounds,
                      [](const round_row& r) { return r.summary.retries; });
    append_u64_column(out, "requeued_blocks", rounds, [](const round_row& r) {
        return r.summary.requeued_blocks;
    });
    append_u64_column(out, "timeouts", rounds,
                      [](const round_row& r) { return r.summary.timeouts; });
    append_u64_column(out, "resumed", rounds, [](const round_row& r) {
        return r.summary.resumed ? 1u : 0u;
    });
    // Shard rusage rows flattened into parallel columns; "row" points each
    // shard sample back at its round row.
    struct shard_sample {
        std::uint64_t row;
        obs::shard_time time;
    };
    std::vector<shard_sample> samples;
    for (std::size_t i = 0; i < rounds.size(); ++i)
        for (const auto& t : rounds[i].summary.shards)
            samples.push_back(shard_sample{i, t});
    const std::span<const shard_sample> sample_span{samples};
    out += "\"shards\":{";
    append_u64_column(out, "row", sample_span,
                      [](const shard_sample& s) { return s.row; });
    append_u64_column(out, "shard", sample_span,
                      [](const shard_sample& s) { return s.time.shard; });
    append_hex_column(out, "wall", sample_span, [](const shard_sample& s) {
        return s.time.wall_seconds;
    });
    append_hex_column(out, "user", sample_span, [](const shard_sample& s) {
        return s.time.user_seconds;
    });
    append_hex_column(
        out, "sys", sample_span,
        [](const shard_sample& s) { return s.time.sys_seconds; },
        /*comma=*/false);
    out += "}}}}\n";
    return out;
}

void decode_segment(const std::string& path, std::string_view text,
                    std::vector<block_row>& blocks,
                    std::vector<round_row>& rounds) {
    try {
        const auto doc = util::parse_json(text);
        const auto& seg = doc.at("segment");
        const auto version = seg.at("version").as_u64();
        if (version != store_format_version)
            throw std::runtime_error{"segment version " +
                                     std::to_string(version) + " != " +
                                     std::to_string(store_format_version)};
        const std::size_t n_blocks = seg.at("block_rows").as_u64();
        const std::size_t n_rounds = seg.at("round_rows").as_u64();

        const auto& bt = seg.at("blocks");
        const auto seq = u64_column(bt, "seq", n_blocks);
        const auto round = u64_column(bt, "round", n_blocks);
        const auto index = u64_column(bt, "index", n_blocks);
        const auto cell = u64_column(bt, "cell", n_blocks);
        const auto trials = u64_column(bt, "trials", n_blocks);
        const auto hijacks = u64_column(bt, "hijacks", n_blocks);
        const auto detections = u64_column(bt, "detections", n_blocks);
        const auto canary = u64_column(bt, "canary_detections", n_blocks);
        const auto other = u64_column(bt, "other_crashes", n_blocks);
        const auto& queries = bt.at("queries");
        const auto& qtc = bt.at("queries_to_compromise");
        const auto& leaked = bt.at("leaked_bytes_valid");
        for (std::size_t i = 0; i < n_blocks; ++i) {
            block_row r;
            r.seq = seq[i];
            r.round = round[i];
            r.block.index = index[i];
            r.block.cell = cell[i];
            r.block.partial.trials = trials[i];
            r.block.partial.hijacks = hijacks[i];
            r.block.partial.detections = detections[i];
            r.block.partial.canary_detections = canary[i];
            r.block.partial.other_crashes = other[i];
            r.block.partial.queries = welford_at(queries, i);
            r.block.partial.queries_to_compromise = welford_at(qtc, i);
            r.block.partial.leaked_bytes_valid = welford_at(leaked, i);
            blocks.push_back(std::move(r));
        }

        const auto& rt = seg.at("rounds");
        const auto rseq = u64_column(rt, "seq", n_rounds);
        const auto rround = u64_column(rt, "round", n_rounds);
        const auto rblocks = u64_column(rt, "blocks", n_rounds);
        const auto rtrials = u64_column(rt, "trials", n_rounds);
        const auto rcum = u64_column(rt, "cumulative_trials", n_rounds);
        const auto rhw = hex_column(rt, "max_halfwidth", n_rounds);
        const auto& rcell = rt.at("widest_cell").elements();
        const auto rwall = hex_column(rt, "wall_seconds", n_rounds);
        const auto rretries = u64_column(rt, "retries", n_rounds);
        const auto rrequeued = u64_column(rt, "requeued_blocks", n_rounds);
        const auto rtimeouts = u64_column(rt, "timeouts", n_rounds);
        const auto rresumed = u64_column(rt, "resumed", n_rounds);
        if (rcell.size() != n_rounds)
            throw std::runtime_error{"column \"widest_cell\" length mismatch"};
        const std::size_t base = rounds.size();
        for (std::size_t i = 0; i < n_rounds; ++i) {
            round_row r;
            r.seq = rseq[i];
            r.summary.round = rround[i];
            r.summary.blocks = rblocks[i];
            r.summary.trials = rtrials[i];
            r.summary.cumulative_trials = rcum[i];
            r.summary.max_halfwidth = rhw[i];
            r.summary.widest_cell = rcell[i].as_string();
            r.summary.wall_seconds = rwall[i];
            r.summary.retries = rretries[i];
            r.summary.requeued_blocks = rrequeued[i];
            r.summary.timeouts = rtimeouts[i];
            r.summary.resumed = rresumed[i] != 0;
            rounds.push_back(std::move(r));
        }
        const auto& st = rt.at("shards");
        const auto& srow = st.at("row").elements();
        const auto& sshard = st.at("shard").elements();
        const auto& swall = st.at("wall").elements();
        const auto& suser = st.at("user").elements();
        const auto& ssys = st.at("sys").elements();
        for (std::size_t i = 0; i < srow.size(); ++i) {
            const std::size_t row = srow[i].as_u64();
            if (row >= n_rounds)
                throw std::runtime_error{"shard sample points past round rows"};
            obs::shard_time t;
            t.shard = static_cast<std::uint32_t>(sshard[i].as_u64());
            t.wall_seconds = swall.at(i).as_double_exact();
            t.user_seconds = suser.at(i).as_double_exact();
            t.sys_seconds = ssys.at(i).as_double_exact();
            rounds[base + row].summary.shards.push_back(t);
        }
    } catch (const std::exception& e) {
        fail(path + " is unreadable: " + e.what());
    }
}

std::string segment_file_name(std::uint64_t first_seq) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "seg-%012llu.json",
                  static_cast<unsigned long long>(first_seq));
    return buf;
}

}  // namespace pssp::store
