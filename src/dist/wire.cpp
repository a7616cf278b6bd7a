#include "dist/wire.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "obs/span.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"

namespace pssp::dist {

namespace {

const char* owf_name(crypto::owf_kind kind) {
    switch (kind) {
        case crypto::owf_kind::aes128: return "aes128";
        case crypto::owf_kind::sha1: return "sha1";
    }
    throw std::invalid_argument{"owf_name: unknown owf_kind"};
}

crypto::owf_kind owf_from_name(const std::string& name) {
    if (name == "aes128") return crypto::owf_kind::aes128;
    if (name == "sha1") return crypto::owf_kind::sha1;
    throw std::invalid_argument{"wire: unknown owf \"" + name + "\""};
}

util::welford_accumulator parse_welford(const util::json_value& v) {
    util::welford_accumulator::state s;
    s.n = v.at("n").as_u64();
    s.mean = v.at("mean").as_double_exact();
    s.m2 = v.at("m2").as_double_exact();
    s.min = v.at("min").as_double_exact();
    s.max = v.at("max").as_double_exact();
    s.total = v.at("total").as_double_exact();
    return util::welford_accumulator::restore(s);
}

}  // namespace

void append_spec_object(std::string& out, const campaign::campaign_spec& spec) {
    out += "{\"schemes\":[";
    for (std::size_t i = 0; i < spec.schemes.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += core::to_string(spec.schemes[i]);
        out += '"';
    }
    out += "],\"attacks\":[";
    for (std::size_t i = 0; i < spec.attacks.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += attack::to_string(spec.attacks[i]);
        out += '"';
    }
    out += "],\"targets\":[";
    for (std::size_t i = 0; i < spec.targets.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += workload::to_string(spec.targets[i]);
        out += '"';
    }
    out += "],";
    util::append_kv(out, "trials_per_cell", spec.trials_per_cell);
    util::append_kv(out, "master_seed", spec.master_seed);
    util::append_kv(out, "jobs", static_cast<std::uint64_t>(spec.jobs));
    util::append_kv_bool(out, "reuse_masters", spec.reuse_masters);
    util::append_kv(out, "query_budget", spec.query_budget);
    util::append_kv(out, "brute_unknown_bits",
                    static_cast<std::uint64_t>(spec.brute_unknown_bits));
    // Adaptive knobs are outcome-relevant: part of the wire spec AND the
    // digest. The target travels hexfloat-exact — the stop decision
    // compares against it, so a worker must see the identical double.
    util::append_kv_bool(out, "adaptive", spec.adaptive);
    util::append_kv_exact(out, "target_ci_halfwidth", spec.target_ci_halfwidth);
    util::append_kv(out, "round_blocks", spec.round_blocks);
    util::append_kv(out, "min_trials_per_cell", spec.min_trials_per_cell);
    out += "\"scheme_options\":{";
    util::append_kv(out, "owf", std::string{owf_name(spec.scheme_options.owf)});
    util::append_kv_bool(out, "lv_check_after_write",
                         spec.scheme_options.lv_check_after_write);
    util::append_kv(
        out, "dcr_trampoline_cycles",
        static_cast<std::uint64_t>(spec.scheme_options.dcr_trampoline_cycles),
        /*comma=*/false);
    out += "}}";
}

campaign::campaign_spec spec_from_object(const util::json_value& s) {
    campaign::campaign_spec spec;
    spec.schemes.clear();
    for (const auto& v : s.at("schemes").elements())
        spec.schemes.push_back(core::scheme_kind_from_string(v.as_string()));
    spec.attacks.clear();
    for (const auto& v : s.at("attacks").elements())
        spec.attacks.push_back(attack::attack_kind_from_string(v.as_string()));
    spec.targets.clear();
    for (const auto& v : s.at("targets").elements())
        spec.targets.push_back(workload::target_kind_from_string(v.as_string()));
    spec.trials_per_cell = s.at("trials_per_cell").as_u64();
    spec.master_seed = s.at("master_seed").as_u64();
    spec.jobs = static_cast<unsigned>(s.at("jobs").as_u64());
    spec.reuse_masters = s.at("reuse_masters").as_bool();
    spec.query_budget = s.at("query_budget").as_u64();
    spec.brute_unknown_bits =
        static_cast<unsigned>(s.at("brute_unknown_bits").as_u64());
    spec.adaptive = s.at("adaptive").as_bool();
    spec.target_ci_halfwidth = s.at("target_ci_halfwidth").as_double_exact();
    spec.round_blocks = s.at("round_blocks").as_u64();
    spec.min_trials_per_cell = s.at("min_trials_per_cell").as_u64();
    const auto& opts = s.at("scheme_options");
    spec.scheme_options.owf = owf_from_name(opts.at("owf").as_string());
    spec.scheme_options.lv_check_after_write =
        opts.at("lv_check_after_write").as_bool();
    spec.scheme_options.dcr_trampoline_cycles =
        static_cast<std::uint32_t>(opts.at("dcr_trampoline_cycles").as_u64());
    return spec;
}

std::string round_job_to_json(const round_job& job) {
    std::string out;
    out.reserve(768 + job.manifest.blocks.size() * 64);
    out += "{\"round_job\":{";
    util::append_kv(out, "version", static_cast<std::uint64_t>(wire_version));
    util::append_kv(out, "round", job.manifest.round);
    util::append_kv(out, "spec_digest", job.manifest.digest);
    out += "\"spec\":";
    append_spec_object(out, job.spec);
    out += ",\"blocks\":[";
    for (std::size_t i = 0; i < job.manifest.blocks.size(); ++i) {
        const auto& b = job.manifest.blocks[i];
        if (i) out += ',';
        out += '{';
        util::append_kv(out, "index", b.index);
        util::append_kv(out, "cell", b.cell);
        util::append_kv(out, "first_trial", b.first_trial);
        util::append_kv(out, "trials", b.trials, /*comma=*/false);
        out += '}';
    }
    out += "]}}";
    return out;
}

round_job round_job_from_json(std::string_view text) {
    const auto doc = util::parse_json(text);
    const auto& j = doc.at("round_job");
    const auto version = j.at("version").as_u64();
    if (version != wire_version)
        throw std::runtime_error{"wire: round job version " +
                                 std::to_string(version) + " != " +
                                 std::to_string(wire_version)};
    round_job job;
    job.manifest.round = j.at("round").as_u64();
    job.manifest.digest = j.at("spec_digest").as_u64();
    job.spec = spec_from_object(j.at("spec"));
    for (const auto& b : j.at("blocks").elements()) {
        campaign::block_ref block;
        block.index = b.at("index").as_u64();
        block.cell = b.at("cell").as_u64();
        block.first_trial = b.at("first_trial").as_u64();
        block.trials = b.at("trials").as_u64();
        job.manifest.blocks.push_back(block);
    }
    return job;
}

std::uint64_t spec_digest(const campaign::campaign_spec& spec) {
    // Canonicalize through the spec JSON with the execution knobs pinned,
    // so the digest is a function of outcome-relevant fields only.
    campaign::campaign_spec canonical = spec;
    canonical.jobs = 1;
    canonical.reuse_masters = true;
    std::string text = "{\"spec\":";
    append_spec_object(text, canonical);
    text += "}";
    return util::fnv1a64(text);
}

void append_partial_block(std::string& out, const partial_block& b) {
    out += '{';
    util::append_kv(out, "index", b.index);
    util::append_kv(out, "cell", b.cell);
    util::append_kv(out, "trials", b.partial.trials);
    util::append_kv(out, "hijacks", b.partial.hijacks);
    util::append_kv(out, "detections", b.partial.detections);
    util::append_kv(out, "canary_detections", b.partial.canary_detections);
    util::append_kv(out, "other_crashes", b.partial.other_crashes);
    util::append_accumulator_exact(out, "queries", b.partial.queries);
    util::append_accumulator_exact(out, "queries_to_compromise",
                                   b.partial.queries_to_compromise);
    util::append_accumulator_exact(out, "leaked_bytes_valid",
                                   b.partial.leaked_bytes_valid,
                                   /*comma=*/false);
    out += '}';
}

partial_block partial_block_from_json(const util::json_value& b) {
    partial_block block;
    block.index = b.at("index").as_u64();
    block.cell = b.at("cell").as_u64();
    block.partial.trials = b.at("trials").as_u64();
    block.partial.hijacks = b.at("hijacks").as_u64();
    block.partial.detections = b.at("detections").as_u64();
    block.partial.canary_detections = b.at("canary_detections").as_u64();
    block.partial.other_crashes = b.at("other_crashes").as_u64();
    block.partial.queries = parse_welford(b.at("queries"));
    block.partial.queries_to_compromise =
        parse_welford(b.at("queries_to_compromise"));
    block.partial.leaked_bytes_valid = parse_welford(b.at("leaked_bytes_valid"));
    return block;
}

std::string partial_to_json(const partial_report& partial) {
    obs::span sp{"wire.encode", "dist",
                 static_cast<std::int64_t>(partial.blocks.size())};
    std::string out;
    out.reserve(256 + partial.blocks.size() * 512);
    out += "{\"partial\":{";
    util::append_kv(out, "version", static_cast<std::uint64_t>(wire_version));
    util::append_kv(out, "shard", static_cast<std::uint64_t>(partial.shard_index));
    util::append_kv(out, "shards",
                    static_cast<std::uint64_t>(partial.shard_count));
    util::append_kv(out, "round", partial.round);
    util::append_kv(out, "spec_digest", partial.digest);
    out += "\"blocks\":[";
    for (std::size_t i = 0; i < partial.blocks.size(); ++i) {
        if (i) out += ',';
        append_partial_block(out, partial.blocks[i]);
    }
    out += "]}}";
    return out;
}

partial_report partial_from_json(std::string_view text) {
    obs::span sp{"wire.decode", "dist",
                 static_cast<std::int64_t>(text.size())};
    const auto doc = util::parse_json(text);
    const auto& p = doc.at("partial");
    const auto version = p.at("version").as_u64();
    if (version != wire_version)
        throw std::runtime_error{"wire: partial version " +
                                 std::to_string(version) + " != " +
                                 std::to_string(wire_version)};
    partial_report partial;
    partial.shard_index = static_cast<std::uint32_t>(p.at("shard").as_u64());
    partial.shard_count = static_cast<std::uint32_t>(p.at("shards").as_u64());
    partial.round = p.at("round").as_u64();
    partial.digest = p.at("spec_digest").as_u64();
    for (const auto& b : p.at("blocks").elements())
        partial.blocks.push_back(partial_block_from_json(b));
    return partial;
}

std::vector<campaign::cell_partial> collect_block_partials(
    const campaign::campaign_spec& spec,
    std::span<const campaign::block_ref> blocks,
    std::span<const partial_report> partials, std::uint64_t expected_round) {
    const auto digest = spec_digest(spec);
    // Position of each expected block index in `blocks`.
    std::vector<std::size_t> position;
    std::size_t max_index = 0;
    for (const auto& b : blocks) max_index = std::max<std::size_t>(max_index, b.index);
    position.assign(blocks.empty() ? 0 : max_index + 1, SIZE_MAX);
    for (std::size_t i = 0; i < blocks.size(); ++i) position[blocks[i].index] = i;

    std::vector<campaign::cell_partial> collected(blocks.size());
    std::vector<bool> seen(blocks.size(), false);
    for (const auto& partial : partials) {
        if (partial.digest != digest)
            throw std::runtime_error{
                "collect_block_partials: shard " +
                std::to_string(partial.shard_index) +
                " ran a different spec (digest mismatch)"};
        if (partial.round != expected_round)
            throw std::runtime_error{
                "collect_block_partials: shard " +
                std::to_string(partial.shard_index) +
                " reported round " + std::to_string(partial.round) +
                ", expected " + std::to_string(expected_round)};
        for (const auto& b : partial.blocks) {
            const std::size_t at =
                b.index < position.size() ? position[b.index] : SIZE_MAX;
            if (at == SIZE_MAX)
                throw std::runtime_error{"collect_block_partials: block " +
                                         std::to_string(b.index) +
                                         " was not assigned"};
            if (seen[at])
                throw std::runtime_error{"collect_block_partials: block " +
                                         std::to_string(b.index) +
                                         " reported twice"};
            if (b.cell != blocks[at].cell)
                throw std::runtime_error{"collect_block_partials: block " +
                                         std::to_string(b.index) +
                                         " cell mismatch"};
            if (b.partial.trials != blocks[at].trials)
                throw std::runtime_error{"collect_block_partials: block " +
                                         std::to_string(b.index) +
                                         " trial count mismatch"};
            seen[at] = true;
            collected[at] = b.partial;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        if (!seen[i])
            throw std::runtime_error{"collect_block_partials: block " +
                                     std::to_string(blocks[i].index) +
                                     " missing (shard lost?)"};
    return collected;
}

}  // namespace pssp::dist
