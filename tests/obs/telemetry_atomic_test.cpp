// The telemetry writer's contract with concurrent readers. Each JSONL
// line — trailing newline included — goes down in one write(2), but Linux
// does not promise that a concurrent read(2) never observes a buffered
// write half-done (a write crossing a page boundary is copied page by
// page). What readers (campaign_query --follow, the store tailer, tail -f)
// actually rely on, and what this pins:
//  * every newline-terminated line a reader sees is byte-exact and in
//    order;
//  * bytes after the last newline are a prefix of the next line, and may
//    appear only while the writer is still open — readers carry them over;
//  * after close, the file is exactly the concatenation of the lines.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/telemetry.hpp"
#include "util/fsio.hpp"

namespace pssp {
namespace {

obs::round_summary summary_for(std::uint64_t round) {
    obs::round_summary s;
    s.round = round;
    s.blocks = 2 + round % 3;
    s.trials = 64 * (round + 1);
    s.cumulative_trials = 64 * (round + 1) * (round + 2) / 2;
    s.max_halfwidth = 1.0 / static_cast<double>(round + 2);
    s.widest_cell = "nginx_m/SSP/leak_replay";
    s.wall_seconds = 0.25 * static_cast<double>(round % 7);
    if (round % 2 == 0) {
        s.shards.push_back({0, 0.5, 0.25, 0.125, {}});
        s.shards.push_back({1, 0.75, 0.5, 0.125, {}});
    }
    s.retries = round % 5;
    s.requeued_blocks = round % 4;
    s.resumed = round % 6 == 0;
    return s;
}

TEST(obs_telemetry_atomic, file_is_the_exact_line_concatenation) {
    const std::string path = ::testing::TempDir() + "pssp-telemetry-" +
                             std::to_string(::getpid()) + "-exact.jsonl";
    std::string expected;
    {
        obs::telemetry_writer writer;
        ASSERT_TRUE(writer.open(path));
        for (std::uint64_t r = 0; r < 32; ++r) {
            writer.append(summary_for(r));
            expected += obs::round_summary_json(summary_for(r)) + "\n";
        }
    }
    std::string on_disk;
    ASSERT_TRUE(util::read_file(path, on_disk));
    EXPECT_EQ(on_disk, expected);
}

TEST(obs_telemetry_atomic, concurrent_reader_sees_exact_lines_in_order) {
    const std::string path = ::testing::TempDir() + "pssp-telemetry-" +
                             std::to_string(::getpid()) + "-race.jsonl";
    ::unlink(path.c_str());  // the reader must never see a stale file
    constexpr std::uint64_t kRounds = 400;

    // Precompute what every line must look like; the reader checks each
    // observed line against this table by index.
    std::vector<std::string> lines;
    for (std::uint64_t r = 0; r < kRounds; ++r)
        lines.push_back(obs::round_summary_json(summary_for(r)) + "\n");

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> mismatched{0}, bad_tail{0}, tail_after_close{0};
    std::uint64_t final_lines = 0;

    std::thread reader{[&] {
        // Read from offset 0 each pass: every pass races a fresh read
        // window against in-flight appends.
        std::string buf;
        while (true) {
            const bool writer_done = done.load(std::memory_order_acquire);
            const int fd = ::open(path.c_str(), O_RDONLY);
            std::uint64_t index = 0;
            if (fd >= 0) {
                buf.clear();
                char chunk[4096];
                ssize_t n;
                while ((n = ::read(fd, chunk, sizeof chunk)) > 0)
                    buf.append(chunk, static_cast<std::size_t>(n));
                ::close(fd);

                std::size_t start = 0;
                while (true) {
                    const auto nl = buf.find('\n', start);
                    if (nl == std::string::npos) break;
                    if (index >= lines.size() ||
                        buf.compare(start, nl + 1 - start, lines[index]) != 0)
                        mismatched.fetch_add(1);
                    start = nl + 1;
                    ++index;
                }
                // A partial tail is the next line's prefix, in flight.
                if (start != buf.size()) {
                    if (writer_done) tail_after_close.fetch_add(1);
                    if (index >= lines.size() ||
                        lines[index].compare(0, buf.size() - start, buf,
                                             start) != 0)
                        bad_tail.fetch_add(1);
                }
            }
            if (writer_done) {
                final_lines = index;
                break;
            }
        }
    }};

    {
        obs::telemetry_writer writer;
        ASSERT_TRUE(writer.open(path));
        for (std::uint64_t r = 0; r < kRounds; ++r)
            writer.append(summary_for(r));
    }
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(mismatched.load(), 0u) << "a complete line was not the writer's";
    EXPECT_EQ(bad_tail.load(), 0u) << "a partial tail was not a line prefix";
    EXPECT_EQ(tail_after_close.load(), 0u)
        << "a partial tail outlived the writer";
    // The final pass (after the writer closed) saw the whole file.
    EXPECT_EQ(final_lines, kRounds);
}

}  // namespace
}  // namespace pssp
