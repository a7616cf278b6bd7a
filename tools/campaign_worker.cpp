// A campaign compute worker: serves lease frames until its stdin closes.
//
// Protocol (dist/frame.hpp framing; src/dist/supervisor.cpp and
// tools/campaign_node.cpp speak the other side):
//
//   stdin   lease frames, read until EOF. Each payload is a lease envelope
//           (shard, shard count, attempt, round) followed by the wire
//           round-job JSON: the spec (jobs/reuse_masters are this shard's
//           execution knobs as set by the orchestrator) plus the round's
//           explicit block manifest — the orchestrator's allocator decides
//           the blocks, whether the round is a fixed campaign's round 0 or
//           adaptive round 1..N
//   stdout  one result frame per lease, in lease order: a result envelope
//           echoing the lease's shard, shard count and attempt (wait
//           status 0), then the wire partial-report JSON — the blocks'
//           mergeable partials, hexfloat-exact, with the round number in
//           the header
//   argv    [--shard K --shards N]   optional; pins the process to that
//           slice, and a lease for any other slice is refused. The local
//           channel passes them so failure messages and postmortems can
//           quote a command line; a node's long-lived worker has none
//   stderr  diagnostics only
//
// The local channel sends one lease and closes stdin, so each of its
// processes serves one job. A node keeps one worker and streams every
// lease it holds through it. Exit 0 at stdin EOF once every lease is
// answered. Any failure is a non-zero exit with a message on stderr and
// no result for the lease in hand: the parent reports the exit status as
// that lease's outcome. Each lease builds a fresh engine (victims and
// master pools) and drops it before the next, so a long-lived worker's
// memory stays that of one lease.
//
// Test hook: PSSP_CAMPAIGN_WORKER_CRASH=<K> makes a lease for shard K
// exit(3) before doing any work, so the crashed-worker path is testable
// without a real fault.
//
// Chaos harness: PSSP_CAMPAIGN_FAULT_PLAN carries a deterministic fault
// plan (grammar in src/dist/chaos.hpp) keyed on the lease envelope's
// (shard, round, attempt). A matching rule injects its fault at the
// scripted point of that lease — crash/hang/slow on receipt, crash-late /
// trunc / corrupt / wrong-block at emit — so supervision and recovery are
// testable with exact, replayable failure schedules.
//
// Flight recorder: PSSP_OBS_FLIGHT=<path> (set by the orchestrator) turns
// on span tracing and checkpoints the newest spans to <path> at startup,
// after each lease's input parse, every 256 trials, and before each
// partial is emitted — so whenever this process dies, <path> holds its
// last recorded moments for the orchestrator's postmortem.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/chaos.hpp"
#include "dist/frame.hpp"
#include "dist/wire.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"

namespace {

using namespace pssp::dist;

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--shard K --shards N] < leases > results\n"
        "Serves dist lease frames until stdin closes: runs each round-job\n"
        "manifest's blocks and answers with a result frame carrying their\n"
        "partial report JSON.\n",
        argv0);
    return 2;
}

// Writes the whole payload to stdout with raw write(2): EINTR retries and
// short writes resume — a signal landing mid-transfer must never truncate
// or fail a result that could have been delivered.
bool write_stdout(const std::string& data, std::uint32_t shard) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(STDOUT_FILENO, data.data() + off,
                                  data.size() - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "shard %u: writing result failed: %s\n", shard,
                     std::strerror(errno));
        return false;
    }
    return true;
}

int emit_partial(partial_report report, const lease_envelope& lease,
                 const fault_rule& fault) {
    const std::uint32_t shard = lease.shard;
    if (fault.kind == fault_kind::crash_late) {
        std::fprintf(stderr, "shard %u: injected crash-late\n", shard);
        return 4;
    }
    if (fault.kind == fault_kind::corrupt) {
        // Parses fine, fails the supervisor's digest validation.
        std::fprintf(stderr, "shard %u: injected corrupt partial\n", shard);
        report.digest ^= 1;
    }
    if (fault.kind == fault_kind::wrong_block) {
        // Covers blocks the manifest never assigned.
        std::fprintf(stderr, "shard %u: injected wrong-block partial\n", shard);
        for (auto& b : report.blocks) b.index += 1;
    }
    auto json = partial_to_json(report);
    if (fault.kind == fault_kind::trunc) {
        std::fprintf(stderr, "shard %u: injected truncated partial\n", shard);
        json.resize(json.size() / 2);
    }
    result_envelope env;
    env.shard = lease.shard;
    env.shard_count = lease.shard_count;
    env.attempt = lease.attempt;
    // Last checkpoint before the pipe write — a result that never arrives
    // still leaves the encode span on record.
    pssp::obs::flight_checkpoint();
    return write_stdout(encode_frame(frame_type::result, encode_result(env, json)),
                        shard)
               ? 0
               : 1;
}

// The manifest must describe real canonical blocks of this spec — a
// corrupt or foreign manifest dies here, not as garbage statistics.
void validate_manifest(const pssp::campaign::campaign_spec& spec,
                       const round_manifest& manifest) {
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

struct worker_config {
    long shard = -1;  // -1: serve any slice
    long shards = -1;
    fault_plan plan;
    bool flight = false;
};

// Serves one lease. Returns 0 to read the next one, or the process exit
// status: the lease in hand then gets no result frame.
int serve_lease(const worker_config& cfg, const lease_envelope& lease,
                std::string_view job_json) {
    const std::uint32_t shard = lease.shard;
    if (cfg.shard >= 0 && (static_cast<long>(lease.shard) != cfg.shard ||
                           static_cast<long>(lease.shard_count) != cfg.shards)) {
        std::fprintf(stderr,
                     "shard %ld: refusing a lease for shard %u of %u\n",
                     cfg.shard, lease.shard, lease.shard_count);
        return 2;
    }

    if (const char* crash = std::getenv("PSSP_CAMPAIGN_WORKER_CRASH"))
        if (std::strtol(crash, nullptr, 10) == static_cast<long>(shard)) {
            std::fprintf(stderr, "shard %u: injected crash\n", shard);
            return 3;
        }

    // Deterministic chaos on this lease's coordinate. Receipt faults
    // strike here; emit-time faults ride along to emit_partial. Process
    // faults only: net-* rules in a mixed plan belong to the node daemon's
    // transport loop, never to this process.
    const auto fault = decide_fault(cfg.plan, lease.shard, lease.round,
                                    lease.attempt, fault_family::process);
    if (fault.kind == fault_kind::crash) {
        std::fprintf(stderr, "shard %u: injected crash\n", shard);
        return 3;
    }
    if (fault.kind == fault_kind::hang) {
        // Block forever, before any work — only the supervisor's deadline
        // SIGKILL (or the node's session teardown) ends this process.
        std::fprintf(stderr, "shard %u: injected hang\n", shard);
        for (;;) ::pause();
    }
    if (fault.kind == fault_kind::slow)
        ::usleep(static_cast<useconds_t>(fault.param * 1000));

    try {
        const auto job = round_job_from_json(job_json);
        if (spec_digest(job.spec) != job.manifest.digest)
            throw std::runtime_error{
                "round job spec digest disagrees with its spec"};
        validate_manifest(job.spec, job.manifest);
        pssp::obs::flight_checkpoint();  // input parsed and validated

        partial_report report;
        report.shard_index = lease.shard;
        report.shard_count = lease.shard_count;
        report.round = job.manifest.round;
        report.digest = job.manifest.digest;
        {
            // A fresh engine per lease: its victims and master pools are
            // dropped before the next lease is read.
            pssp::campaign::engine engine{job.spec};
            if (cfg.flight)
                engine.set_progress([](std::uint64_t done, std::uint64_t) {
                    if (done % 256 == 0) pssp::obs::flight_checkpoint();
                });
            const auto partials = engine.run_blocks(job.manifest.blocks);
            report.blocks.reserve(job.manifest.blocks.size());
            for (std::size_t i = 0; i < job.manifest.blocks.size(); ++i)
                report.blocks.push_back(partial_block{
                    job.manifest.blocks[i].index, job.manifest.blocks[i].cell,
                    partials[i]});
        }
        return emit_partial(std::move(report), lease, fault);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "shard %u: %s\n", shard, e.what());
        return 1;
    }
}

}  // namespace

int main(int argc, char** argv) {
    worker_config cfg;
    try {
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--shard") && i + 1 < argc)
                cfg.shard = static_cast<long>(pssp::util::parse_count(
                    "--shard", argv[++i], 0, UINT32_MAX));
            else if (!std::strcmp(argv[i], "--shards") && i + 1 < argc)
                cfg.shards = static_cast<long>(pssp::util::parse_count(
                    "--shards", argv[++i], 1, UINT32_MAX));
            else
                return usage(argv[0]);
        }
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "worker: %s\n", e.what());
        return 2;
    }
    const bool pinned = cfg.shard >= 0 || cfg.shards >= 0;
    if (pinned && (cfg.shard < 0 || cfg.shards <= 0 || cfg.shard >= cfg.shards))
        return usage(argv[0]);

    // Arm the flight recorder before anything that can fail — including
    // the injected-crash hooks, so even a worker that "crashes" on its
    // first lease leaves a (near-empty but valid) recording behind.
    if (const char* flight_path = std::getenv("PSSP_OBS_FLIGHT")) {
        pssp::obs::set_flight_path(flight_path);
        pssp::obs::enable_tracing(true);
        pssp::obs::flight_checkpoint();
        cfg.flight = true;
    }

    // A malformed plan is a loud exit — a typo'd chaos run must never pass
    // as a clean one.
    if (const char* plan_text = std::getenv(fault_plan_env)) {
        try {
            cfg.plan = parse_fault_plan(plan_text);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "worker: %s\n", e.what());
            return 2;
        }
    }

    frame_reader reader;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR) continue;
            std::fprintf(stderr, "worker: reading stdin failed: %s\n",
                         std::strerror(errno));
            return 1;
        }
        if (n == 0) break;
        reader.feed(buf, static_cast<std::size_t>(n));
        try {
            while (auto f = reader.next()) {
                if (f->type != frame_type::lease)
                    throw std::runtime_error{
                        std::string{"expected a lease frame, got "} +
                        to_string(f->type)};
                std::string_view job_json;
                const auto lease = decode_lease(f->payload, &job_json);
                if (const int status = serve_lease(cfg, lease, job_json);
                    status != 0)
                    return status;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "worker: %s\n", e.what());
            return 1;
        }
    }
    if (reader.pending_bytes() != 0) {
        std::fprintf(stderr, "worker: %s\n",
                     closed_mid_frame_error(reader.pending_bytes()).c_str());
        return 1;
    }
    return 0;
}
