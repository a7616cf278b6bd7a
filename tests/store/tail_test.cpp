// The store log's contract with concurrent readers. store_writer appends
// each entry as one complete hashed line (trailing newline included) in
// one write(2) plus fsync, but Linux does not promise that a concurrent
// read(2) never observes a buffered write half-done (a write crossing a
// page boundary is copied page by page). What readers
// (tools_campaign_query --follow through store_tailer, tail -f) rely on,
// and what this pins:
//  * every newline-terminated line a reader sees is byte-exact and in
//    order, and store_tailer hands each one over decoded, exactly once;
//  * bytes after the last newline are a prefix of the next line, and may
//    appear only while the writer is still open — readers carry them over;
//  * after close, ingest.log is exactly the concatenation of the lines.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "store/reader.hpp"
#include "store/store.hpp"
#include "util/fsio.hpp"

namespace pssp {
namespace {

std::string fresh_dir(const char* tag) {
    return ::testing::TempDir() + "pssp-tail-" + tag + "-" +
           std::to_string(::getpid());
}

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

// Every fourth round also stores three blocks first, so the log mixes the
// short round lines with the longer blocks lines.
std::vector<dist::partial_block> blocks_for_round(std::uint64_t round) {
    std::vector<dist::partial_block> blocks;
    if (round % 4 != 0) return blocks;
    for (std::uint64_t b = 0; b < 3; ++b) {
        dist::partial_block block;
        block.index = 3 * round + b;
        block.partial.trials = 64;
        blocks.push_back(block);
    }
    return blocks;
}

// The lines ingest.log must hold after append_rounds(dir, rounds), in
// order.
std::vector<std::string> expected_lines(std::uint64_t rounds) {
    std::vector<std::string> lines;
    std::uint64_t seq = 1;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        if (const auto blocks = blocks_for_round(r); !blocks.empty())
            lines.push_back(store::encode_log_line(
                store::log_entry::make_blocks(seq++, r, blocks)));
        lines.push_back(store::encode_log_line(
            store::log_entry::make_round(seq++, summary_for(r))));
    }
    return lines;
}

// Stores the rounds [0, rounds) in a fresh store; the writer closes on
// return.
void append_rounds(const std::string& dir, std::uint64_t rounds) {
    auto writer = store::store_writer::open(dir, campaign::default_spec(),
                                            /*resume=*/false);
    for (std::uint64_t r = 0; r < rounds; ++r) {
        if (const auto blocks = blocks_for_round(r); !blocks.empty())
            writer.ingest_blocks(r, blocks);
        writer.ingest_round(summary_for(r));
    }
}

TEST(store_tail, log_is_the_exact_line_concatenation) {
    const auto dir = fresh_dir("exact");
    append_rounds(dir, 32);
    const auto lines = expected_lines(32);
    std::string expected;
    for (const auto& line : lines) expected += line;
    std::string on_disk;
    ASSERT_TRUE(util::read_file(dir + "/ingest.log", on_disk));
    EXPECT_EQ(on_disk, expected);

    store::store_tailer tailer{dir};
    const auto entries = tailer.poll();
    ASSERT_EQ(entries.size(), lines.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_EQ(store::encode_log_line(entries[i]), lines[i]) << "line " << i;
    EXPECT_TRUE(tailer.poll().empty());
    std::filesystem::remove_all(dir);
}

TEST(store_tail, tailer_carries_a_partial_line_to_the_next_poll) {
    // What a poll sees while a write is still being copied in, pinned
    // without a race: the first half of a line yields nothing, and the
    // line arrives whole once the rest lands.
    const auto dir = fresh_dir("carry");
    append_rounds(dir, 2);
    const auto lines = expected_lines(3);
    store::store_tailer tailer{dir};
    ASSERT_EQ(tailer.poll().size(), lines.size() - 1);

    const std::string& last = lines.back();
    const std::size_t half = last.size() / 2;
    const int fd = ::open((dir + "/ingest.log").c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    util::write_all(fd, last.substr(0, half), dir);
    EXPECT_TRUE(tailer.poll().empty()) << "a partial line was decoded";
    util::write_all(fd, last.substr(half), dir);
    ::close(fd);
    const auto entries = tailer.poll();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(store::encode_log_line(entries[0]), last);
    std::filesystem::remove_all(dir);
}

TEST(store_tail, concurrent_readers_see_exact_lines_in_order) {
    const auto dir = fresh_dir("race");
    constexpr std::uint64_t kRounds = 400;
    // What every line must look like; the readers check each observed
    // line against this table by index.
    const auto lines = expected_lines(kRounds);
    const std::string log_path = dir + "/ingest.log";

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> mismatched{0}, bad_tail{0}, tail_after_close{0},
        tailer_mismatched{0};
    std::uint64_t final_lines = 0;
    std::uint64_t tailed = 0;

    std::thread reader{[&] {
        store::store_tailer tailer{dir};
        std::string buf;
        while (true) {
            const bool writer_done = done.load(std::memory_order_acquire);
            // The tailer: each complete line, decoded, exactly once.
            try {
                for (const auto& entry : tailer.poll()) {
                    if (tailed >= lines.size() ||
                        store::encode_log_line(entry) != lines[tailed])
                        tailer_mismatched.fetch_add(1);
                    ++tailed;
                }
            } catch (const std::exception&) {
                tailer_mismatched.fetch_add(1);  // a torn "complete" line
            }
            // A raw read from offset 0 on each pass: every pass races a
            // fresh read window against in-flight appends.
            const int fd = ::open(log_path.c_str(), O_RDONLY);
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

    append_rounds(dir, kRounds);
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(mismatched.load(), 0u) << "a complete line was not the writer's";
    EXPECT_EQ(bad_tail.load(), 0u) << "a partial tail was not a line prefix";
    EXPECT_EQ(tail_after_close.load(), 0u)
        << "a partial tail outlived the writer";
    EXPECT_EQ(tailer_mismatched.load(), 0u)
        << "the tailer handed over a line that was not the writer's";
    // The final pass (after the writer closed) saw the whole log, and the
    // tailer handed over every line exactly once.
    EXPECT_EQ(final_lines, lines.size());
    EXPECT_EQ(tailed, lines.size());
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pssp
