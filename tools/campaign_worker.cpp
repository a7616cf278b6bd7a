// One shard of one campaign round, as a process.
//
// Protocol (see src/dist/orchestrator.cpp, which speaks the other side):
//
//   stdin   wire round-job JSON: the spec (jobs/reuse_masters are this
//           shard's execution knobs as set by the orchestrator) plus this
//           round's explicit block manifest — the orchestrator's allocator
//           decides the blocks, whether the round is a fixed campaign's
//           round 0 or adaptive round 1..N
//   argv    --shard K --shards N   (K/N name this round's slice for the
//           partial header and error messages)
//   stdout  wire partial-report JSON: the shard's per-block mergeable
//           partials, hexfloat-exact, with the round number in the header
//   stderr  diagnostics only
// Exit 0 on success; any failure is a non-zero exit with a message on
// stderr — the orchestrator turns that into a loud run failure.
//
// Test hook: PSSP_CAMPAIGN_WORKER_CRASH=<K> makes shard K exit(3) before
// doing any work, so the crashed-worker path is testable without a real
// fault.
//
// Chaos harness: PSSP_CAMPAIGN_FAULT_PLAN carries a deterministic fault
// plan (grammar in src/dist/chaos.hpp) keyed on (shard, round, attempt);
// the shard comes from argv, the round and attempt from the
// PSSP_CAMPAIGN_ROUND / PSSP_CAMPAIGN_ATTEMPT environment the supervisor
// exports per spawn. A matching rule injects its fault at the scripted
// point in this process's life — crash/hang/slow at startup, crash-late /
// trunc / corrupt / wrong-block at emit — so supervision and recovery are
// testable with exact, replayable failure schedules.
//
// Flight recorder: PSSP_OBS_FLIGHT=<path> (set by the orchestrator) turns
// on span tracing and checkpoints the newest spans to <path> at startup,
// after input parse, every 256 trials, and before the partial is emitted —
// so whenever this process dies, <path> holds its last recorded moments
// for the orchestrator's postmortem.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/chaos.hpp"
#include "dist/wire.hpp"
#include "obs/span.hpp"

namespace {

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --shard K --shards N < round_job.json > partial.json\n"
        "Runs the blocks of one round-job manifest (dist wire format) and\n"
        "writes their partial report JSON to stdout.\n",
        argv0);
    return 2;
}

std::string read_stdin() {
    std::string input;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error{"reading input from stdin failed"};
        }
        if (n == 0) return input;
        input.append(buf, static_cast<std::size_t>(n));
    }
}

// Writes the whole payload to stdout with raw write(2): EINTR retries and
// short writes resume — a signal landing mid-transfer must never truncate
// or fail a partial that could have been delivered.
bool write_stdout(const char* data, std::size_t size, long shard) {
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(STDOUT_FILENO, data + off, size - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "shard %ld: writing partial failed: %s\n", shard,
                     std::strerror(errno));
        return false;
    }
    return true;
}

int emit_partial(pssp::dist::partial_report report, long shard,
                 const pssp::dist::fault_rule& fault) {
    using pssp::dist::fault_kind;
    if (fault.kind == fault_kind::crash_late) {
        std::fprintf(stderr, "shard %ld: injected crash-late\n", shard);
        return 4;
    }
    if (fault.kind == fault_kind::corrupt) {
        // Parses fine, fails the supervisor's digest validation.
        std::fprintf(stderr, "shard %ld: injected corrupt partial\n", shard);
        report.digest ^= 1;
    }
    if (fault.kind == fault_kind::wrong_block) {
        // Covers blocks the manifest never assigned.
        std::fprintf(stderr, "shard %ld: injected wrong-block partial\n", shard);
        for (auto& b : report.blocks) b.index += 1;
    }
    auto json = pssp::dist::partial_to_json(report);
    if (fault.kind == fault_kind::trunc) {
        std::fprintf(stderr, "shard %ld: injected truncated partial\n", shard);
        json.resize(json.size() / 2);
    }
    // Last checkpoint before the pipe write — a partial that never arrives
    // still leaves the encode span on record.
    pssp::obs::flight_checkpoint();
    return write_stdout(json.data(), json.size(), shard) ? 0 : 1;
}

// The manifest must describe real canonical blocks of this spec — a
// corrupt or foreign manifest dies here, not as garbage statistics.
void validate_manifest(const pssp::campaign::campaign_spec& spec,
                       const pssp::dist::round_manifest& manifest) {
    const auto canonical = pssp::campaign::blocks_for(spec);
    for (const auto& b : manifest.blocks) {
        if (b.index >= canonical.size())
            throw std::runtime_error{"manifest block index " +
                                     std::to_string(b.index) + " out of range"};
        const auto& c = canonical[b.index];
        if (b.cell != c.cell || b.first_trial != c.first_trial ||
            b.trials != c.trials)
            throw std::runtime_error{"manifest block " + std::to_string(b.index) +
                                     " disagrees with the canonical block space"};
    }
}

}  // namespace

int main(int argc, char** argv) {
    long shard = -1;
    long shards = -1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--shard") && i + 1 < argc)
            shard = std::strtol(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--shards") && i + 1 < argc)
            shards = std::strtol(argv[++i], nullptr, 10);
        else
            return usage(argv[0]);
    }
    if (shard < 0 || shards <= 0 || shard >= shards) return usage(argv[0]);

    // Arm the flight recorder before anything that can fail — including
    // the injected-crash hook below, so even a worker that "crashes"
    // instantly leaves a (near-empty but valid) recording behind.
    bool flight = false;
    if (const char* flight_path = std::getenv("PSSP_OBS_FLIGHT")) {
        pssp::obs::set_flight_path(flight_path);
        pssp::obs::enable_tracing(true);
        pssp::obs::flight_checkpoint();
        flight = true;
    }

    if (const char* crash = std::getenv("PSSP_CAMPAIGN_WORKER_CRASH"))
        if (std::strtol(crash, nullptr, 10) == shard) {
            std::fprintf(stderr, "shard %ld: injected crash\n", shard);
            return 3;
        }

    // Deterministic chaos: look up this process's (shard, round, attempt)
    // coordinate in the fault plan. Startup faults strike here; emit-time
    // faults ride along to emit_partial. A malformed plan is a loud exit —
    // a typo'd chaos run must never pass as a clean one.
    pssp::dist::fault_rule fault;
    if (const char* plan_text = std::getenv(pssp::dist::fault_plan_env)) {
        try {
            const auto plan = pssp::dist::parse_fault_plan(plan_text);
            const char* round_env = std::getenv(pssp::dist::fault_round_env);
            const char* attempt_env = std::getenv(pssp::dist::fault_attempt_env);
            // Process faults only: net-* rules in a mixed plan belong to
            // the node daemon's transport loop, never to this process.
            fault = pssp::dist::decide_fault(
                plan, static_cast<std::uint64_t>(shard),
                round_env != nullptr ? std::strtoull(round_env, nullptr, 10) : 0,
                attempt_env != nullptr ? std::strtoull(attempt_env, nullptr, 10)
                                       : 1,
                pssp::dist::fault_family::process);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "shard %ld: %s\n", shard, e.what());
            return 2;
        }
        using pssp::dist::fault_kind;
        if (fault.kind == fault_kind::crash) {
            std::fprintf(stderr, "shard %ld: injected crash\n", shard);
            return 3;
        }
        if (fault.kind == fault_kind::hang) {
            // Block forever, before touching stdin — only the supervisor's
            // deadline SIGKILL ends this process.
            std::fprintf(stderr, "shard %ld: injected hang\n", shard);
            for (;;) ::pause();
        }
        if (fault.kind == fault_kind::slow)
            ::usleep(static_cast<useconds_t>(fault.param * 1000));
    }

    try {
        pssp::dist::partial_report report;
        report.shard_index = static_cast<std::uint32_t>(shard);
        report.shard_count = static_cast<std::uint32_t>(shards);

        const auto job = pssp::dist::round_job_from_json(read_stdin());
        if (pssp::dist::spec_digest(job.spec) != job.manifest.digest)
            throw std::runtime_error{
                "round job spec digest disagrees with its spec"};
        validate_manifest(job.spec, job.manifest);
        pssp::obs::flight_checkpoint();  // input parsed and validated

        pssp::campaign::engine engine{job.spec};
        if (flight)
            engine.set_progress([](std::uint64_t done, std::uint64_t) {
                if (done % 256 == 0) pssp::obs::flight_checkpoint();
            });
        const auto partials = engine.run_blocks(job.manifest.blocks);

        report.round = job.manifest.round;
        report.digest = job.manifest.digest;
        report.blocks.reserve(job.manifest.blocks.size());
        for (std::size_t i = 0; i < job.manifest.blocks.size(); ++i)
            report.blocks.push_back(pssp::dist::partial_block{
                job.manifest.blocks[i].index, job.manifest.blocks[i].cell,
                partials[i]});
        return emit_partial(std::move(report), shard, fault);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "shard %ld: %s\n", shard, e.what());
        return 1;
    }
}
