// Process plumbing shared by run_jobs() and the tools_campaign_node daemon.
//
// child_process is one fork/exec'd compute worker behind a stdin/stdout
// pipe pair. The input is fed over a non-blocking stdin pipe and the
// output collected from a non-blocking stdout pipe, both from the caller's
// poll() loop, so a child that hangs before reading its input can never
// wedge the parent. run_jobs()'s local channel and the node daemon (which
// runs one leased attempt at a time) drive their children through it.
#pragma once

#include <csignal>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>

namespace pssp::dist {

// The sibling `name` of the running executable: the orchestrator, node and
// worker binaries are built into one directory. Falls back to ./name.
[[nodiscard]] std::string sibling_binary(const char* name);

// Ignores SIGPIPE for its lifetime: a peer that dies mid-write must
// surface as a failed write, not kill this process.
class scoped_sigpipe_ignore {
  public:
    scoped_sigpipe_ignore();
    ~scoped_sigpipe_ignore();
    scoped_sigpipe_ignore(const scoped_sigpipe_ignore&) = delete;
    scoped_sigpipe_ignore& operator=(const scoped_sigpipe_ignore&) = delete;

  private:
    struct sigaction old_ {};
};

class child_process {
  public:
    child_process() = default;
    child_process(const child_process&) = delete;
    child_process& operator=(const child_process&) = delete;
    // A child still running at destruction is SIGKILLed and reaped.
    ~child_process() { (void)kill_and_reap(); }

    // fork/execs `path` with `args` as argv[1..], exporting each `env`
    // pair into the child's environment, and queues `input` for its stdin.
    // Returns an empty string, or "pipe() failed (...)" / "fork() failed
    // (...)" with nothing left open. A failed exec surfaces later as exit
    // status 127.
    [[nodiscard]] std::string spawn(
        const std::string& path, const std::vector<std::string>& args,
        const std::vector<std::pair<const char*, std::string>>& env,
        std::string input);

    [[nodiscard]] bool running() const noexcept { return pid_ >= 0; }
    // stdout reached EOF (or a read error): reap() will not block long.
    [[nodiscard]] bool output_done() const noexcept { return out_fd_ < 0; }

    // Appends one pollfd per open pipe end.
    void add_poll_fds(std::vector<pollfd>& fds) const;
    // Feeds stdin or drains stdout, whichever `p` (with revents) names.
    // EINTR retries, EAGAIN yields back to poll, EPIPE records
    // input_error() (the wait status decides what it means).
    void service(const pollfd& p);

    // Waits for the child and returns its raw wait status.
    [[nodiscard]] int reap(struct rusage* usage = nullptr);
    // SIGKILL without reaping (a deadline): EOF then drives the reap.
    void kill() noexcept;
    // SIGKILL + reap; the wait status, or -1 if nothing was running.
    int kill_and_reap() noexcept;

    [[nodiscard]] const std::string& output() const noexcept { return output_; }
    [[nodiscard]] const std::string& input_error() const noexcept {
        return input_error_;
    }

  private:
    void close_input() noexcept;
    void close_output() noexcept;

    pid_t pid_ = -1;
    int in_fd_ = -1;   // non-blocking write end of the child's stdin
    int out_fd_ = -1;  // non-blocking read end of the child's stdout
    std::string input_;
    std::size_t in_off_ = 0;
    std::string input_error_;
    std::string output_;
};

}  // namespace pssp::dist
