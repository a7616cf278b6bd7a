#include "store/reader.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "util/fsio.hpp"

namespace pssp::store {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error{"store: " + what};
}

}  // namespace

store_data load_store(const std::string& dir) {
    store_data data;
    data.directory = dir;

    std::string manifest_text;
    if (!util::read_file(dir + "/store.json", manifest_text))
        fail(dir + " is not a result store (missing store.json)");
    data.meta = decode_manifest(dir + "/store.json", manifest_text);

    const std::string log_path = dir + "/ingest.log";
    std::uint64_t max_seq = 0;
    util::line_scan_result scan;
    util::scan_lines(
        log_path,
        [&](std::size_t line_no, std::string_view line) {
            auto entry = decode_log_line(log_path, line_no, line);
            max_seq = std::max(max_seq, entry.seq);
            switch (entry.kind) {
                case entry_kind::blocks:
                    for (auto& b : entry.blocks)
                        data.blocks.push_back(
                            block_row{entry.seq, entry.round, std::move(b)});
                    break;
                case entry_kind::round:
                    data.rounds.push_back(
                        round_row{entry.seq, std::move(entry.summary)});
                    break;
                case entry_kind::metrics:
                    data.metrics = std::move(entry.metrics);
                    break;
                case entry_kind::complete:
                    data.complete = true;
                    data.done = entry.done;
                    break;
            }
        },
        scan);
    data.dropped_torn_tail = scan.torn_tail;
    data.log_bytes = scan.consumed_bytes;
    data.next_seq = max_seq + 1;
    return data;
}

store_tailer::store_tailer(std::string dir)
    : log_path_{std::move(dir) + "/ingest.log"} {}

std::vector<log_entry> store_tailer::poll() {
    std::vector<log_entry> out;
    int fd = -1;
    while ((fd = ::open(log_path_.c_str(), O_RDONLY)) < 0 && errno == EINTR) {
    }
    if (fd < 0) {
        if (errno == ENOENT) return out;  // campaign not started yet
        throw std::runtime_error{"store: cannot open " + log_path_ + " (" +
                                 std::strerror(errno) + ")"};
    }
    char buf[1 << 16];
    for (;;) {
        const ssize_t n =
            ::pread(fd, buf, sizeof buf, static_cast<off_t>(offset_));
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) {
            const int err = errno;
            ::close(fd);
            throw std::runtime_error{"store: cannot read " + log_path_ + " (" +
                                     std::strerror(err) + ")"};
        }
        if (n == 0) break;
        offset_ += static_cast<std::uint64_t>(n);
        pending_.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    std::size_t start = 0;
    for (;;) {
        const auto nl = pending_.find('\n', start);
        if (nl == std::string::npos) break;
        const std::string_view line{pending_.data() + start, nl - start};
        auto entry = decode_log_line(log_path_, ++line_no_, line);
        if (entry.kind == entry_kind::complete) complete_ = true;
        out.push_back(std::move(entry));
        start = nl + 1;
    }
    pending_.erase(0, start);
    return out;
}

}  // namespace pssp::store
