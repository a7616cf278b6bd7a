#include "dist/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/registry.hpp"

namespace pssp::dist {

namespace {

using steady_clock = std::chrono::steady_clock;

// ---- obs counters (side channel; registered once per process) ----
struct net_counters {
    obs::metric_id connections = obs::counter("dist.net.connections");
    obs::metric_id leases = obs::counter("dist.net.leases");
    obs::metric_id heartbeats = obs::counter("dist.net.heartbeats");
    obs::metric_id evictions = obs::counter("dist.net.evictions");
    obs::metric_id reconnects = obs::counter("dist.net.reconnects");
};

const net_counters& counters() {
    static const net_counters ids;
    return ids;
}

// Heartbeat intervals of silence after which a node is evicted.
constexpr double heartbeat_grace = 8.0;

// SIGTERM drain flag: async-signal-safe, shared by every coordinator in
// the process (realistically one).
volatile std::sig_atomic_t g_drain_requested = 0;

void drain_handler(int) { g_drain_requested = 1; }

steady_clock::duration from_seconds(double s) {
    return std::chrono::duration_cast<steady_clock::duration>(
        std::chrono::duration<double>(s));
}

[[noreturn]] void throw_errno(const char* what) {
    throw std::runtime_error{std::string{"coordinator: "} + what +
                             " failed (" + std::strerror(errno) + ")"};
}

}  // namespace

std::string coordinator::version_mismatch_error(std::uint32_t worker_version) {
    return "coordinator: protocol version mismatch (worker speaks v" +
           std::to_string(worker_version) + ", coordinator speaks v" +
           std::to_string(net_protocol_version) + ")";
}

coordinator::coordinator(const net_options& options, std::uint64_t spec_digest)
    : options_{options}, digest_{spec_digest} {
    listen_and_bind();
    struct sigaction term {};
    term.sa_handler = drain_handler;
    ::sigaction(SIGTERM, &term, &old_term_);
    // A fresh coordinator starts undrained even if a previous one in this
    // process was drained.
    g_drain_requested = 0;
    starved_since_ = steady_clock::now();
    if (options_.on_listen) options_.on_listen(port_);
    spawn_fleet();
}

coordinator::~coordinator() {
    ::sigaction(SIGTERM, &old_term_, nullptr);
    // Best-effort clean goodbye so well-behaved nodes exit 0 ...
    for (auto& n : nodes_) {
        if (!n.conn.open()) continue;
        n.conn.queue(frame_type::shutdown, {});
        (void)n.conn.pump_writes();
        n.conn.close();
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    // ... a moment for each fleet node to take it (it reaps its worker
    // first, so the fleet's CPU time and peak RSS reach this process's
    // RUSAGE_CHILDREN) ... and a hard stop for any that does not.
    const auto deadline = steady_clock::now() + std::chrono::seconds{1};
    for (const pid_t pid : fleet_) {
        int status = 0;
        pid_t done = 0;
        while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
               steady_clock::now() < deadline)
            ::usleep(200);
        if (done == 0) {
            ::kill(pid, SIGKILL);
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
            }
        }
    }
}

void coordinator::listen_and_bind() {
    listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw_errno("socket()");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.listen_port);
    if (::inet_pton(AF_INET, options_.listen_host.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error{"coordinator: bad listen address \"" +
                                 options_.listen_host + "\""};
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0)
        throw_errno("bind()");
    if (::listen(listen_fd_, SOMAXCONN) != 0) throw_errno("listen()");
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0)
        throw_errno("getsockname()");
    port_ = ntohs(bound.sin_port);
}

void coordinator::spawn_fleet() {
    if (options_.fleet_workers == 0) return;
    const std::string node_bin = sibling_binary("tools_campaign_node");
    const std::string endpoint =
        options_.listen_host + ":" + std::to_string(port_);
    for (unsigned k = 0; k < options_.fleet_workers; ++k) {
        const std::string name = "node-" + std::to_string(k);
        const pid_t pid = ::fork();
        if (pid < 0) throw_errno("fork() for fleet node");
        if (pid == 0) {
            // A SIGKILLed coordinator (--kill-after-round) must not leak
            // node processes.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            std::vector<const char*> argv{node_bin.c_str(), "--connect",
                                          endpoint.c_str(), "--name",
                                          name.c_str()};
            if (!options_.worker_path.empty()) {
                argv.push_back("--worker");
                argv.push_back(options_.worker_path.c_str());
            }
            argv.push_back(nullptr);
            ::execv(node_bin.c_str(), const_cast<char* const*>(argv.data()));
            std::fprintf(stderr, "campaign node exec failed: %s: %s\n",
                         node_bin.c_str(), std::strerror(errno));
            ::_exit(127);
        }
        fleet_.push_back(pid);
    }
}

// A node left (disconnect, poisoned or misaddressed frame, heartbeat
// silence): close it and report the lease it held as lost.
void coordinator::evict(node& n, const std::string& reason, failure_kind kind) {
    obs::add(counters().evictions, 1);
    if (stats_ != nullptr) stats_->evictions += 1;
    if (n.job != npos && events_ != nullptr) {
        lease_event e;
        e.job = n.job;
        e.attempt = n.attempt;
        e.kind = kind;
        e.why = "worker '" + n.name + "' " + reason;
        events_->push_back(std::move(e));
    }
    n.job = npos;
    n.conn.close();
}

std::string coordinator::revoke(std::size_t k, supervise_stats& stats) {
    for (auto& n : nodes_) {
        if (n.job != k || !n.conn.open()) continue;
        // Expiry is an eviction for the node: a late result must never
        // race the re-lease, so the connection goes with the lease. Outside
        // service() there is no event list, so none is reported.
        stats_ = &stats;
        evict(n, {}, failure_kind::timeout);
        stats_ = nullptr;
        return n.name;
    }
    return {};
}

void coordinator::handle_hello(node& n, const frame& f) {
    hello_msg hello;
    try {
        hello = hello_from_json(f.payload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "coordinator: bad hello: %s\n", e.what());
        n.conn.close();
        return;
    }
    if (hello.version != net_protocol_version) {
        n.conn.queue(frame_type::error, version_mismatch_error(hello.version));
        (void)n.conn.pump_writes();
        n.conn.close();
        return;
    }
    n.name = hello.name.empty() ? "worker-fd" + std::to_string(n.conn.fd())
                                : hello.name;
    n.registered = true;
    if (hello.reconnects > 0) {
        obs::add(counters().reconnects, 1);
        if (stats_ != nullptr) stats_->reconnects += 1;
    }
    welcome_msg welcome;
    welcome.heartbeat_ms = static_cast<std::uint64_t>(
        std::max(1.0, options_.heartbeat_seconds * 1000.0));
    welcome.spec_digest = digest_;
    n.conn.queue(frame_type::welcome, welcome_to_json(welcome));
}

void coordinator::handle_result(node& n, const frame& f) {
    if (n.job == npos) return;  // nothing leased: stale, dedup ignores it
    std::string_view output;
    result_envelope env;
    try {
        env = decode_result(f.payload, &output);
    } catch (const std::exception& e) {
        evict(n, std::string{"sent an undecodable result ("} + e.what() + ")",
              failure_kind::bad_partial);
        return;
    }
    // The connection closes on eviction, so no stale echo can arrive on
    // it: a result for another shard or attempt is a misbehaving peer.
    if (env.shard != n.shard || env.attempt != n.attempt) {
        evict(n,
              "sent a result for shard " + std::to_string(env.shard) +
                  " attempt " + std::to_string(env.attempt) +
                  " while leased shard " + std::to_string(n.shard) +
                  " attempt " + std::to_string(n.attempt),
              failure_kind::bad_partial);
        return;
    }
    lease_event e;
    e.job = n.job;
    e.attempt = n.attempt;
    e.wait_status = env.wait_status;
    e.output = std::string{output};
    e.worker = n.name;
    events_->push_back(std::move(e));
    n.job = npos;
}

void coordinator::handle_frame(node& n, const frame& f) {
    n.last_heard = steady_clock::now();
    switch (f.type) {
        case frame_type::hello:
            handle_hello(n, f);
            return;
        case frame_type::heartbeat:
            obs::add(counters().heartbeats, 1);
            return;
        case frame_type::result:
            if (!n.registered)
                evict(n, "sent a result before registering",
                      failure_kind::crash);
            else
                handle_result(n, f);
            return;
        case frame_type::error:
            std::fprintf(stderr, "coordinator: worker '%s' error: %s\n",
                         n.name.c_str(), f.payload.c_str());
            evict(n, "reported a fatal error: " + f.payload,
                  failure_kind::crash);
            return;
        default:
            evict(n, std::string{"sent an unexpected "} + to_string(f.type) +
                         " frame",
                  failure_kind::crash);
            return;
    }
}

void coordinator::accept_pending() {
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN and transient errors alike: retry later
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        node n;
        n.conn = frame_conn{fd};
        n.last_heard = steady_clock::now();
        nodes_.push_back(std::move(n));
        obs::add(counters().connections, 1);
    }
}

bool coordinator::lease(std::size_t k, const supervised_job& job,
                        unsigned attempt) {
    if (g_drain_requested != 0) return false;
    const auto idle =
        std::find_if(nodes_.begin(), nodes_.end(), [](const node& n) {
            return n.registered && n.conn.open() && n.job == npos;
        });
    if (idle == nodes_.end()) return false;  // saturated: bounded in-flight
    idle->job = k;
    idle->shard = job.shard;
    idle->attempt = attempt;
    idle->conn.queue(frame_type::lease, lease_payload(job, attempt));
    obs::add(counters().leases, 1);
    return true;
}

void coordinator::check_progress(bool in_flight) {
    const auto now = steady_clock::now();
    if (registered_workers() > 0) {
        starved_since_ = now;
    } else if (std::chrono::duration<double>(now - starved_since_).count() >
               options_.register_wait_seconds) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "no registered workers within %.1fs — fleet lost or "
                      "never connected",
                      options_.register_wait_seconds);
        throw std::runtime_error{std::string{"run_sharded: "} + msg};
    }
    if (g_drain_requested != 0 && !in_flight)
        throw std::runtime_error{
            "run_sharded: coordinator drained on SIGTERM (completed rounds "
            "are in the store; --resume continues the campaign)"};
}

steady_clock::time_point coordinator::add_poll_fds(
    std::vector<pollfd>& fds) const {
    // The listen socket goes first, so accept runs before any eviction of
    // the same pass could free an fd number for reuse.
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const auto silence =
        from_seconds(options_.heartbeat_seconds * heartbeat_grace);
    auto nearest = steady_clock::time_point::max();
    for (const auto& n : nodes_) {
        if (!n.conn.open()) continue;
        const short events =
            static_cast<short>(POLLIN | (n.conn.wants_write() ? POLLOUT : 0));
        fds.push_back(pollfd{n.conn.fd(), events, 0});
        nearest = std::min(nearest, n.last_heard + silence);
    }
    return nearest;
}

std::vector<lease_event> coordinator::service(std::span<const pollfd> fds,
                                              supervise_stats* stats) {
    std::vector<lease_event> events;
    events_ = &events;
    stats_ = stats;
    for (const auto& p : fds) {
        if (p.revents == 0) continue;
        if (p.fd == listen_fd_) {
            accept_pending();
            continue;
        }
        const auto it =
            std::find_if(nodes_.begin(), nodes_.end(), [&p](const node& n) {
                return n.conn.open() && n.conn.fd() == p.fd;
            });
        if (it == nodes_.end()) continue;
        node& n = *it;
        if ((p.revents & POLLOUT) != 0 && !n.conn.pump_writes()) {
            evict(n, "write failed (" + n.conn.error() + ")",
                  failure_kind::crash);
            continue;
        }
        if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        std::vector<frame> frames;
        const auto status = n.conn.read_frames(frames);
        for (const auto& f : frames) {
            if (!n.conn.open()) break;
            handle_frame(n, f);
        }
        if (!n.conn.open()) continue;
        if (status == frame_conn::io_status::failed)
            evict(n, "connection failed (" + n.conn.error() + ")",
                  failure_kind::crash);
        else if (status == frame_conn::io_status::closed)
            evict(n, "disconnected", failure_kind::crash);
    }
    const auto silence =
        from_seconds(options_.heartbeat_seconds * heartbeat_grace);
    const auto tick = steady_clock::now();
    for (auto& n : nodes_)
        if (n.conn.open() && tick - n.last_heard > silence)
            evict(n, "evicted after heartbeat silence", failure_kind::crash);
    nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                                [](const node& n) { return !n.conn.open(); }),
                 nodes_.end());
    events_ = nullptr;
    stats_ = nullptr;
    return events;
}

void coordinator::pump(int wait_ms) {
    std::vector<pollfd> fds;
    (void)add_poll_fds(fds);
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), wait_ms) >= 0)
        (void)service(fds, nullptr);
}

std::size_t coordinator::registered_workers() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(nodes_.begin(), nodes_.end(), [](const node& n) {
            return n.registered && n.conn.open();
        }));
}

}  // namespace pssp::dist
