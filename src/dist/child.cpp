#include "dist/child.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <limits.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pssp::dist {

std::string sibling_binary(const char* name) {
    char buf[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string path{buf};
        const auto slash = path.rfind('/');
        if (slash != std::string::npos) return path.substr(0, slash + 1) + name;
    }
    return std::string{"./"} + name;
}

scoped_sigpipe_ignore::scoped_sigpipe_ignore() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &old_);
}

scoped_sigpipe_ignore::~scoped_sigpipe_ignore() {
    ::sigaction(SIGPIPE, &old_, nullptr);
}

std::string child_process::spawn(
    const std::string& path, const std::vector<std::string>& args,
    const std::vector<std::pair<const char*, std::string>>& env,
    std::string input) {
    // [0] = stdin, [1] = stdout. O_CLOEXEC: a child must not inherit its
    // siblings' pipe ends — a write end surviving in another child would
    // hold this child's stdin open past the parent's close and stall EOF.
    int pipes[2][2] = {{-1, -1}, {-1, -1}};
    auto close_all = [&pipes] {
        for (auto& p : pipes)
            for (int& fd : p)
                if (fd >= 0) ::close(fd);
    };
    for (auto& p : pipes) {
        if (::pipe2(p, O_CLOEXEC) != 0) {
            const int err = errno;
            close_all();
            return std::string{"pipe() failed ("} + std::strerror(err) + ")";
        }
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int err = errno;
        close_all();
        return std::string{"fork() failed ("} + std::strerror(err) + ")";
    }
    if (pid == 0) {
        // stderr stays inherited: child diagnostics surface on the parent's.
        ::dup2(pipes[0][0], STDIN_FILENO);
        ::dup2(pipes[1][1], STDOUT_FILENO);
        for (const auto& [name, value] : env)
            ::setenv(name, value.c_str(), /*overwrite=*/1);
        std::vector<const char*> argv;
        argv.reserve(args.size() + 2);
        argv.push_back(path.c_str());
        for (const auto& a : args) argv.push_back(a.c_str());
        argv.push_back(nullptr);
        ::execv(path.c_str(), const_cast<char* const*>(argv.data()));
        // 127 is the conventional "command not found" status, which the
        // parent turns into a pointed, non-retryable error.
        std::fprintf(stderr, "campaign worker exec failed: %s: %s\n",
                     path.c_str(), std::strerror(errno));
        ::_exit(127);
    }
    ::close(pipes[0][0]);
    ::close(pipes[1][1]);
    pid_ = pid;
    in_fd_ = pipes[0][1];
    out_fd_ = pipes[1][0];
    for (const int fd : {in_fd_, out_fd_})
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    input_ = std::move(input);
    in_off_ = 0;
    input_error_.clear();
    output_.clear();
    if (input_.empty()) close_input();
    return {};
}

void child_process::add_poll_fds(std::vector<pollfd>& fds) const {
    if (in_fd_ >= 0) fds.push_back(pollfd{in_fd_, POLLOUT, 0});
    if (out_fd_ >= 0) fds.push_back(pollfd{out_fd_, POLLIN, 0});
}

void child_process::service(const pollfd& p) {
    if (p.revents == 0) return;
    if (p.fd == in_fd_) {
        while (in_off_ < input_.size()) {
            const ssize_t n = ::write(in_fd_, input_.data() + in_off_,
                                      input_.size() - in_off_);
            if (n > 0) {
                in_off_ += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
            if (input_error_.empty())
                input_error_ =
                    std::string{"input write failed: "} + std::strerror(errno);
            break;
        }
        close_input();
    } else if (p.fd == out_fd_) {
        char buf[1 << 16];
        for (;;) {
            const ssize_t n = ::read(out_fd_, buf, sizeof buf);
            if (n > 0) {
                output_.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
            close_output();
            return;
        }
    }
}

int child_process::reap(struct rusage* usage) {
    close_input();
    close_output();
    int status = 0;
    while (::wait4(pid_, &status, 0, usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
}

void child_process::kill() noexcept {
    if (pid_ >= 0) ::kill(pid_, SIGKILL);
}

int child_process::kill_and_reap() noexcept {
    if (pid_ < 0) return -1;
    kill();
    return reap();
}

void child_process::close_input() noexcept {
    if (in_fd_ >= 0) ::close(in_fd_);
    in_fd_ = -1;
}

void child_process::close_output() noexcept {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
}

}  // namespace pssp::dist
