// A remote campaign worker node: the daemon half of dist::coordinator.
//
// Connects to a coordinator (`--connect host:port`), registers with a
// hello/welcome handshake, then serves leases: each lease frame carries
// the *same* round-job JSON the local channel feeds over stdin, so the
// node fork/execs the sibling `tools_campaign_worker` through the same
// child driver (dist/child.hpp) with the standard argv (--shard K
// --shards N) and environment (PSSP_CAMPAIGN_ROUND /
// PSSP_CAMPAIGN_ATTEMPT) and streams the child's raw stdout back in a
// result frame together with its wait status. run_jobs classifies that
// exactly like a local attempt — the compute layer cannot tell the
// channel kinds apart.
//
// Liveness: one poll() loop drives the socket and the compute child's
// pipes together, so heartbeats keep flowing while a lease computes. A
// malformed coordinator frame ends the session with an error frame, never
// the process. If
// the coordinator goes away mid-lease (eviction, crash, network cut) the
// child is SIGKILLed — its lease has been requeued on a survivor; letting
// it finish would only waste cycles — and the node reconnects and
// re-registers with a bumped reconnect counter. Reconnect attempts are
// bounded (--retries); exhaustion exits the process.
//
// Chaos: net-* rules in PSSP_CAMPAIGN_FAULT_PLAN are executed HERE, keyed
// on the lease's (shard, round, attempt) coordinate — drop the
// connection, go silent through a partition, stall heartbeats, garble the
// result frame, delay it, or kill the whole node (net-die, the
// permanently-vanished worker). Process faults ride through unchanged to
// the compute child, which selects them itself.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dist/chaos.hpp"
#include "dist/child.hpp"
#include "dist/frame.hpp"

namespace {

using namespace pssp::dist;

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --connect HOST:PORT [--name NAME] [--worker PATH]\n"
        "          [--retries N] [--retry-delay MS]\n"
        "Campaign worker node: registers with a dist::coordinator and runs\n"
        "one leased block-manifest job at a time by fork/exec'ing the\n"
        "compute worker (default: the sibling tools_campaign_worker).\n",
        argv0);
    return 2;
}

int connect_to(const std::string& host, const std::string& port) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 ||
        res == nullptr)
        return -1;
    int fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                      res->ai_protocol);
    if (fd >= 0) {
        int rc;
        while ((rc = ::connect(fd, res->ai_addr, res->ai_addrlen)) < 0 &&
               errno == EINTR) {
        }
        if (rc != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ::freeaddrinfo(res);
    if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    }
    return fd;
}

std::uint64_t now_ms() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

struct node_config {
    std::string host;
    std::string port;
    std::string name = "node";
    std::string worker;
    unsigned retries = 60;
    unsigned retry_delay_ms = 250;
};

// Sends the compute child's result, applying the lease's net fault.
// Returns false when the connection is poisoned.
bool respond(const node_config& cfg, frame_conn& conn,
             const lease_envelope& env, const fault_rule& nf, int status,
             const std::string& output) {
    result_envelope renv;
    renv.shard = env.shard;
    renv.shard_count = env.shard_count;
    renv.attempt = env.attempt;
    renv.wait_status = status;
    if (nf.kind == fault_kind::net_delay)
        ::usleep(static_cast<useconds_t>(nf.param * 1000));
    if (nf.kind != fault_kind::net_garble) {
        conn.queue(frame_type::result, encode_result(renv, output));
        return true;
    }
    // Flip one trailer byte so the coordinator's integrity hash catches
    // it; write raw, bypassing the frame queue.
    std::fprintf(stderr, "%s: injected net-garble on shard %u\n",
                 cfg.name.c_str(), env.shard);
    auto raw = encode_frame(frame_type::result, encode_result(renv, output));
    raw.back() = static_cast<char>(raw.back() ^ 0x5a);
    std::size_t off = 0;
    while (off < raw.size()) {
        const ssize_t n =
            ::write(conn.fd(), raw.data() + off, raw.size() - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 &&
            (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
            continue;
        return false;
    }
    return true;
}

// One connected session. Returns true to reconnect, false to exit the
// process (shutdown, net-die, fatal coordinator error). `connected` is
// set once the TCP connect succeeds, so the caller can distinguish a lost
// session (counts as a reconnect) from a coordinator that was never
// reachable. A compute child still running when the session ends is
// SIGKILLed by its destructor: its lease has been requeued elsewhere.
bool run_session(const node_config& cfg, const fault_plan& plan,
                 std::uint64_t reconnects, bool& connected) {
    const int fd = connect_to(cfg.host, cfg.port);
    if (fd < 0) return true;  // retry: coordinator may not be up yet
    connected = true;
    frame_conn conn{fd};
    hello_msg hello;
    hello.name = cfg.name;
    hello.reconnects = reconnects;
    conn.queue(frame_type::hello, hello_to_json(hello));

    std::uint64_t heartbeat_ms = 250;
    bool welcomed = false;
    bool stall_heartbeats = false;
    std::uint64_t last_beat = now_ms();
    child_process child;
    lease_envelope lease;
    fault_rule lease_fault;  // net fault applied when the result is ready

    // Handles one coordinator frame: 1 = carry on, 0 = exit, -1 = reconnect.
    // Throws on a malformed payload.
    auto handle = [&](const frame& f) -> int {
        switch (f.type) {
            case frame_type::welcome:
                heartbeat_ms = std::max<std::uint64_t>(
                    1, welcome_from_json(f.payload).heartbeat_ms);
                welcomed = true;
                return 1;
            case frame_type::lease: {
                std::string_view job_json;
                const auto env = decode_lease(f.payload, &job_json);
                const auto nf = decide_fault(plan, env.shard, env.round,
                                             env.attempt, fault_family::net);
                switch (nf.kind) {
                    case fault_kind::net_die:
                        std::fprintf(stderr, "%s: injected net-die\n",
                                     cfg.name.c_str());
                        return 0;  // vanish for good
                    case fault_kind::net_drop:
                        std::fprintf(stderr, "%s: injected net-drop\n",
                                     cfg.name.c_str());
                        return -1;  // reconnect; requeued lease heals
                    case fault_kind::net_partition:
                        std::fprintf(stderr,
                                     "%s: injected net-partition (%llums)\n",
                                     cfg.name.c_str(),
                                     static_cast<unsigned long long>(nf.param));
                        ::usleep(static_cast<useconds_t>(nf.param * 1000));
                        return -1;  // partition lifted: reconnect
                    case fault_kind::net_stall_hb:
                        std::fprintf(stderr, "%s: injected net-stall-hb\n",
                                     cfg.name.c_str());
                        stall_heartbeats = true;
                        return 1;  // take no lease; wait for eviction
                    default:
                        break;
                }
                if (child.running()) {
                    // Protocol breach: capacity is one lease.
                    conn.queue(frame_type::error, "node already holds a lease");
                    return 1;
                }
                // The same argv and env contract as the local channel.
                const std::vector<std::string> args{
                    "--shard", std::to_string(env.shard), "--shards",
                    std::to_string(env.shard_count)};
                if (!child.spawn(cfg.worker, args,
                                 {{fault_round_env, std::to_string(env.round)},
                                  {fault_attempt_env,
                                   std::to_string(env.attempt)}},
                                 std::string{job_json})
                         .empty()) {
                    conn.queue(frame_type::error,
                               "node failed to spawn the worker");
                    return 1;
                }
                lease = env;
                lease_fault = nf;
                return 1;
            }
            case frame_type::shutdown:
                return 0;  // clean exit
            case frame_type::error:
                std::fprintf(stderr, "%s: coordinator refused us: %s\n",
                             cfg.name.c_str(), f.payload.c_str());
                return 0;  // e.g. version mismatch: do not retry
            default:
                return 1;
        }
    };

    for (;;) {
        const short events =
            static_cast<short>(POLLIN | (conn.wants_write() ? POLLOUT : 0));
        std::vector<pollfd> fds{pollfd{conn.fd(), events, 0}};
        child.add_poll_fds(fds);
        const std::uint64_t now = now_ms();
        const std::uint64_t next_beat = last_beat + heartbeat_ms;
        // Stalled heartbeats (net-stall-hb) must not busy-spin on an
        // always-due beat — wait on socket events alone.
        const int wait_ms =
            stall_heartbeats
                ? 60000
                : static_cast<int>(next_beat > now
                                       ? std::min<std::uint64_t>(
                                             next_beat - now, 60000)
                                       : 0);
        if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   welcomed ? wait_ms : 1000) < 0) {
            if (errno != EINTR) return true;
            continue;  // revents are undefined after EINTR
        }

        // Heartbeat tick (any frame counts as liveness coordinator-side,
        // but a steady beat is what keeps an idle node registered).
        if (welcomed && !stall_heartbeats && now_ms() >= next_beat) {
            conn.queue(frame_type::heartbeat, {});
            last_beat = now_ms();
        }

        if ((fds[0].revents & POLLOUT) != 0 && !conn.pump_writes()) return true;
        if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            std::vector<frame> frames;
            const auto status = conn.read_frames(frames);
            try {
                for (const auto& f : frames)
                    if (const int next = handle(f); next != 1) return next < 0;
            } catch (const std::exception& e) {
                // A malformed frame from the coordinator ends the session,
                // never the process: say why, then reconnect.
                std::fprintf(stderr, "%s: bad frame from coordinator: %s\n",
                             cfg.name.c_str(), e.what());
                conn.queue(frame_type::error, e.what());
                (void)conn.pump_writes();
                return true;
            }
            // Coordinator gone (eviction, kill, cut). The lease we hold
            // has been requeued elsewhere — stop burning cycles on it.
            if (status != frame_conn::io_status::ok) return true;
        }

        for (std::size_t i = 1; i < fds.size(); ++i) child.service(fds[i]);
        if (child.running() && child.output_done() &&
            !respond(cfg, conn, lease, lease_fault, child.reap(),
                     child.output()))
            return true;
    }
}

}  // namespace

int main(int argc, char** argv) {
    node_config cfg;
    std::string endpoint;
    for (int i = 1; i < argc; ++i) {
        const auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--connect"))
            endpoint = next("--connect");
        else if (!std::strcmp(argv[i], "--name"))
            cfg.name = next("--name");
        else if (!std::strcmp(argv[i], "--worker"))
            cfg.worker = next("--worker");
        else if (!std::strcmp(argv[i], "--retries"))
            cfg.retries = static_cast<unsigned>(
                std::strtoul(next("--retries"), nullptr, 10));
        else if (!std::strcmp(argv[i], "--retry-delay"))
            cfg.retry_delay_ms = static_cast<unsigned>(
                std::strtoul(next("--retry-delay"), nullptr, 10));
        else
            return usage(argv[0]);
    }
    const auto colon = endpoint.rfind(':');
    if (endpoint.empty() || colon == std::string::npos) return usage(argv[0]);
    cfg.host = endpoint.substr(0, colon);
    cfg.port = endpoint.substr(colon + 1);
    if (cfg.worker.empty())
        cfg.worker = sibling_binary("tools_campaign_worker");

    // A coordinator dying mid-write must surface as a failed write, not
    // SIGPIPE killing the node.
    const scoped_sigpipe_ignore ignore_pipe;

    fault_plan plan;
    if (const char* plan_text = std::getenv(pssp::dist::fault_plan_env)) {
        try {
            plan = parse_fault_plan(plan_text);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s: %s\n", cfg.name.c_str(), e.what());
            return 2;
        }
    }

    std::uint64_t reconnects = 0;
    unsigned failed_connects = 0;
    while (failed_connects <= cfg.retries) {
        bool connected = false;
        if (!run_session(cfg, plan, reconnects, connected)) return 0;
        if (connected) {
            // A live session was lost: the lease we held is already being
            // requeued, so reconnect immediately (no delay) with the
            // retry budget restored, and tell the next hello.
            ++reconnects;
            failed_connects = 0;
            continue;
        }
        // A refused or unreachable connect is a plain retry with a delay —
        // the coordinator may simply not be up yet.
        ++failed_connects;
        ::usleep(static_cast<useconds_t>(cfg.retry_delay_ms) * 1000);
    }
    std::fprintf(stderr, "%s: coordinator unreachable after %u attempts\n",
                 cfg.name.c_str(), cfg.retries + 1);
    return 1;
}
