// Small POSIX file-I/O helpers for the durable-state writer (the store's
// ingest log and its manifest) and its readers.
//
// Three idioms live here so every durable artifact behaves the same way:
//
//  * write_all / open_append: O_APPEND logs written as complete lines,
//    short writes and EINTR retried until the line is fully down.
//  * write_file_atomic: tmp + fsync + rename + directory fsync — the named file
//    is either the old version or the complete new one, never torn.
//  * scan_lines: streams a '\n'-terminated line file through a callback
//    in fixed-size chunks, so replaying a multi-gigabyte log never
//    buffers more than the longest single line. The scan reports whether
//    trailing bytes without a newline were left over (a torn final line
//    from a mid-write crash) and where the last complete line ends; the
//    store drops such a tail and cuts it off before appending again.
//
// All failures throw std::runtime_error naming the path and errno text.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace pssp::util {

// Writes all of `bytes` to `fd`, retrying EINTR and short writes.
void write_all(int fd, std::string_view bytes, const std::string& path);

// Reads a whole file into `out`; returns false (empty out) if it does not
// exist. Only for small metadata files — logs go through scan_lines.
[[nodiscard]] bool read_file(const std::string& path, std::string& out);

// tmp + fsync + rename + directory fsync. `name` is relative to `dir`.
// Any failed write, flush or close throws naming the path, and a failure
// before the rename leaves the old `name` in place.
void write_file_atomic(const std::string& dir, const std::string& name,
                       std::string_view body);

// Opens (creating if needed) a log for appending; optionally truncates.
[[nodiscard]] int open_append(const std::string& path, bool truncate);

struct line_scan_result {
    std::uint64_t lines = 0;           // complete lines delivered
    std::uint64_t consumed_bytes = 0;  // offset just past the last newline
    bool torn_tail = false;            // trailing bytes with no newline
};

// Streams `path` line by line: fn(line_no, line) for every complete
// '\n'-terminated line (1-based line numbers, newline excluded), in fixed
// chunks. Returns false if the file does not exist. Never delivers a
// torn tail — it is reported in `result` instead.
bool scan_lines(const std::string& path,
                const std::function<void(std::size_t line_no,
                                         std::string_view line)>& fn,
                line_scan_result& result);

}  // namespace pssp::util
