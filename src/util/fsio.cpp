#include "util/fsio.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pssp::util {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
    throw std::runtime_error{what + " (" + std::strerror(errno) + ")"};
}

int open_retry(const char* path, int flags, mode_t mode = 0) {
    int fd = -1;
    while ((fd = ::open(path, flags, mode)) < 0 && errno == EINTR) {
    }
    return fd;
}

// fsync then close `fd`, throwing naming `path` if either fails; the
// descriptor is closed either way.
void sync_and_close(int fd, const std::string& path) {
    const bool synced = ::fsync(fd) == 0;
    const int err = errno;
    if (::close(fd) != 0 && synced) fail_errno("cannot close " + path);
    if (!synced) {
        errno = err;
        fail_errno("fsync failed on " + path);
    }
}

}  // namespace

void write_all(int fd, std::string_view bytes, const std::string& path) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        fail_errno("short write to " + path);
    }
}

bool read_file(const std::string& path, std::string& out) {
    out.clear();
    const int fd = open_retry(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT) return false;
        fail_errno("cannot open " + path);
    }
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) {
            const int err = errno;
            ::close(fd);
            errno = err;
            fail_errno("cannot read " + path);
        }
        break;
    }
    ::close(fd);
    return true;
}

void write_file_atomic(const std::string& dir, const std::string& name,
                       std::string_view body) {
    const std::string tmp = dir + "/" + name + ".tmp";
    const std::string final_path = dir + "/" + name;
    const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) fail_errno("cannot create " + tmp);
    try {
        write_all(fd, body, tmp);
    } catch (...) {
        ::close(fd);
        throw;
    }
    // Nothing is renamed into place unless its bytes are known durable.
    sync_and_close(fd, tmp);
    if (::rename(tmp.c_str(), final_path.c_str()) != 0)
        fail_errno("cannot rename " + tmp);
    const int dfd = open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) fail_errno("cannot open directory " + dir);
    sync_and_close(dfd, dir);
}

int open_append(const std::string& path, bool truncate) {
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate) flags |= O_TRUNC;
    const int fd = open_retry(path.c_str(), flags, 0644);
    if (fd < 0) fail_errno("cannot open " + path);
    return fd;
}

bool scan_lines(const std::string& path,
                const std::function<void(std::size_t line_no,
                                         std::string_view line)>& fn,
                line_scan_result& result) {
    result = {};
    const int fd = open_retry(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT) return false;
        fail_errno("cannot open " + path);
    }
    // `carry` holds the partial line spanning chunk boundaries; memory is
    // bounded by the longest line, not the file.
    std::string carry;
    char buf[1 << 16];
    std::size_t line_no = 0;
    try {
        for (;;) {
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n < 0 && errno == EINTR) continue;
            if (n < 0) fail_errno("cannot read " + path);
            if (n == 0) break;
            std::string_view chunk{buf, static_cast<std::size_t>(n)};
            for (;;) {
                const std::size_t nl = chunk.find('\n');
                if (nl == std::string_view::npos) {
                    carry += chunk;
                    break;
                }
                ++line_no;
                std::string_view line = chunk.substr(0, nl);
                if (!carry.empty()) {
                    carry += line;
                    line = carry;
                }
                result.consumed_bytes += line.size() + 1;
                fn(line_no, line);
                carry.clear();
                chunk.remove_prefix(nl + 1);
            }
        }
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    result.lines = line_no;
    result.torn_tail = !carry.empty();
    return true;
}

}  // namespace pssp::util
