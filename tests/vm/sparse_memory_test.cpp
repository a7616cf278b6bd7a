// Sparse images against a dense reference. vm::memory copies, restores and
// syncs only the pages that may be non-zero; this suite replays seeded
// random sequences of stores, copies, restores, syncs and channel cleans
// on a few images and on a dense model of the same semantics (every page
// copied, every page compared), and requires the same bytes and the same
// dirty-page counts after every step. A residency check then pins what the
// sparseness buys: a copy of a booted master maps only its written pages.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "util/bytes.hpp"
#include "vm/memory.hpp"
#include "workload/victim.hpp"

namespace pssp {
namespace {

using vm::dirty_channel;
using vm::memory;

constexpr std::size_t page = memory::page_bytes;

// The dense model: the whole image as one flat buffer (stack, globals, tls
// at page-aligned offsets, as in vm::memory) plus one flag per page per
// channel. Every operation touches every page it names, with no notion of
// which pages could be zero.
struct dense_image {
    std::vector<std::uint8_t> bytes;
    std::array<std::vector<bool>, 2> dirty;

    explicit dense_image(std::size_t size)
        : bytes(size, 0), dirty{std::vector<bool>(size / page, false),
                                std::vector<bool>(size / page, false)} {}

    void store(std::size_t off, const std::vector<std::uint8_t>& data) {
        std::copy(data.begin(), data.end(), bytes.begin() + static_cast<std::ptrdiff_t>(off));
        for (std::size_t p = off / page; p <= (off + data.size() - 1) / page; ++p)
            dirty[0][p] = dirty[1][p] = true;
    }
    void copy_page(const dense_image& src, std::size_t p) {
        std::copy_n(src.bytes.begin() + static_cast<std::ptrdiff_t>(p * page), page,
                    bytes.begin() + static_cast<std::ptrdiff_t>(p * page));
    }
    void restore_from(const dense_image& snap) {
        for (std::size_t p = 0; p < dirty[0].size(); ++p) {
            if (!dirty[0][p]) continue;
            copy_page(snap, p);
            dirty[1][p] = true;
            dirty[0][p] = false;
        }
    }
    void sync_from(dense_image& src) {
        for (std::size_t p = 0; p < dirty[1].size(); ++p) {
            if (!dirty[1][p] && !src.dirty[1][p]) continue;
            copy_page(src, p);
            dirty[1][p] = src.dirty[1][p] = false;
        }
    }
    void mark_clean(dirty_channel channel) {
        auto& bits = dirty[static_cast<unsigned>(channel)];
        std::fill(bits.begin(), bits.end(), false);
    }
    [[nodiscard]] std::size_t dirty_pages(dirty_channel channel) const {
        const auto& bits = dirty[static_cast<unsigned>(channel)];
        return static_cast<std::size_t>(std::count(bits.begin(), bits.end(), true));
    }
};

// One region of the default layout: its guest base, size and offset into
// the flat image.
struct region {
    std::uint64_t base;
    std::size_t size;
    std::size_t off;
};

std::array<region, 3> regions_of(const memory::layout& lay) {
    const std::size_t globals_off = lay.stack_size;
    const std::size_t tls_off = globals_off + lay.globals_size;
    return {region{lay.stack_top - lay.stack_size, lay.stack_size, 0},
            region{lay.globals_base, lay.globals_size, globals_off},
            region{lay.tls_base, lay.tls_size, tls_off}};
}

// An image under test and its model, kept in lockstep.
struct image_pair {
    memory real;
    dense_image model;
};

void expect_same(const image_pair& s, const std::array<region, 3>& regions,
                 const std::string& where) {
    const auto same = [&s](std::span<const std::uint8_t> real, const region& r) {
        return std::equal(real.begin(), real.end(),
                          s.model.bytes.begin() + static_cast<std::ptrdiff_t>(r.off));
    };
    ASSERT_TRUE(same(s.real.stack_bytes(), regions[0])) << where << ": stack";
    ASSERT_TRUE(same(s.real.globals_bytes(), regions[1])) << where << ": globals";
    ASSERT_TRUE(same(s.real.tls_bytes(), regions[2])) << where << ": tls";
    for (const auto ch : {dirty_channel::restore, dirty_channel::fork})
        ASSERT_EQ(s.real.dirty_pages(ch), s.model.dirty_pages(ch))
            << where << ": channel " << static_cast<unsigned>(ch);
}

void run_sequence(std::uint64_t seed, int steps) {
    std::mt19937_64 rng{seed};
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const memory::layout lay{};
    const auto regions = regions_of(lay);
    const std::size_t image_size = regions[2].off + lay.tls_size;

    constexpr std::size_t slots = 4;
    std::vector<image_pair> images;
    for (std::size_t i = 0; i < slots; ++i)
        images.push_back(image_pair{memory{lay}, dense_image{image_size}});

    for (int step = 0; step < steps; ++step) {
        const std::size_t i = pick(slots);
        std::size_t j = pick(slots - 1);
        if (j >= i) ++j;  // a second, distinct image
        auto& a = images[i];
        auto& b = images[j];
        std::string what;
        switch (pick(12)) {
            case 0: case 1: case 2: case 3: case 4: {
                // A store into one of a few pages per region (so images
                // overlap), sometimes of zeros, sometimes across a page.
                const region& r = regions[pick(3)];
                const std::size_t pages = r.size / page;
                const std::size_t hot[] = {0, 1, pages / 2, pages - 1};
                const std::size_t p = hot[pick(4)] % pages;
                const std::size_t len = std::array<std::size_t, 5>{1, 4, 8, 64, 5000}[pick(5)];
                std::size_t off = p * page + pick(page);
                off = std::min(off, r.size - std::min(len, r.size));
                const std::size_t n = std::min(len, r.size - off);
                std::vector<std::uint8_t> data(n);
                const bool zeros = pick(4) == 0;
                for (auto& byte : data) byte = zeros ? 0 : static_cast<std::uint8_t>(rng() | 1);
                const std::uint64_t addr = r.base + off;
                if (n == 8) {
                    a.real.store64(addr, util::load_le64(data));
                } else if (n == 4) {
                    a.real.store32(addr, util::load_le32(data));
                } else if (n == 1) {
                    a.real.store8(addr, data[0]);
                } else {
                    a.real.write_bytes(addr, data);
                }
                a.model.store(r.off + off, data);
                what = "store";
                break;
            }
            case 5:
                a = image_pair{memory{b.real}, b.model};
                what = "copy-construct";
                break;
            case 6:
                a.real = b.real;
                a.model = b.model;
                what = "copy-assign";
                break;
            case 7:
                a.real.restore_from(b.real);
                a.model.restore_from(b.model);
                what = "restore_from";
                break;
            case 8:
                a.real.sync_from(b.real);
                a.model.sync_from(b.model);
                what = "sync_from";
                break;
            case 9:
            case 10: {
                const auto ch = pick(2) == 0 ? dirty_channel::restore : dirty_channel::fork;
                a.real.mark_clean(ch);
                a.model.mark_clean(ch);
                what = "mark_clean";
                break;
            }
            default:
                a = image_pair{memory{lay}, dense_image{image_size}};
                what = "fresh";
                break;
        }
        // Only the two images named by the step can have changed.
        const std::string where = "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + " (" + what + ")";
        expect_same(a, regions, where + " image " + std::to_string(i));
        expect_same(b, regions, where + " image " + std::to_string(j));
        if (::testing::Test::HasFatalFailure()) return;
    }
}

TEST(sparse_memory, random_sequences_match_the_dense_model) {
    for (const std::uint64_t seed : {1u, 2u, 2018u, 7919u}) {
        run_sequence(seed, 1500);
        if (HasFatalFailure()) return;
    }
}

TEST(sparse_memory, copy_assign_zeroes_pages_only_the_destination_wrote) {
    memory dst;
    memory src;
    const auto& lay = dst.regions();
    dst.store64(lay.globals_base + 3 * page, 0xdeadbeef);
    dst.store64(lay.tls_base, 0x1234);
    dst.mark_all_clean();  // only the touched set remembers these pages
    src.store64(lay.stack_top - 8, 0x5678);
    dst = src;
    EXPECT_EQ(dst.load64(lay.globals_base + 3 * page), 0u);
    EXPECT_EQ(dst.load64(lay.tls_base), 0u);
    EXPECT_EQ(dst.load64(lay.stack_top - 8), 0x5678u);
    EXPECT_TRUE(std::equal(dst.globals_bytes().begin(), dst.globals_bytes().end(),
                           src.globals_bytes().begin()));
    EXPECT_EQ(dst.dirty_pages(dirty_channel::restore), 1u);
    EXPECT_EQ(dst.dirty_pages(dirty_channel::fork), 1u);
}

TEST(sparse_memory, restore_zero_fills_pages_the_snapshot_never_wrote) {
    memory snap;
    const auto& lay = snap.regions();
    memory live{snap};
    live.store64(lay.globals_base + 5 * page, 42);
    live.mark_clean(dirty_channel::fork);
    live.restore_from(snap);
    EXPECT_EQ(live.load64(lay.globals_base + 5 * page), 0u);
    EXPECT_EQ(live.dirty_pages(dirty_channel::restore), 0u);
    EXPECT_EQ(live.dirty_pages(dirty_channel::fork), 1u);
}

// Resident pages of `m`'s backing mapping, by mincore(2). The three
// regions are laid out back to back in one page-aligned mapping that
// starts at the stack.
std::size_t resident_pages(const memory& m) {
    const auto* begin = m.stack_bytes().data();
    const auto* end = m.tls_bytes().data() + m.tls_bytes().size();
    const auto bytes = static_cast<std::size_t>(end - begin);
    std::vector<unsigned char> residency((bytes + page - 1) / page);
    EXPECT_EQ(::mincore(const_cast<std::uint8_t*>(begin), bytes, residency.data()), 0);
    return static_cast<std::size_t>(
        std::count_if(residency.begin(), residency.end(),
                      [](unsigned char r) { return (r & 1) != 0; }));
}

TEST(sparse_memory, copy_of_a_booted_master_maps_only_written_pages) {
    ASSERT_EQ(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)), page);
    const auto victim =
        workload::make_victim(workload::target_kind::nginx, core::scheme_kind::p_ssp);
    const auto server = victim.make_server(2018);
    const memory copy{server.master().mem()};
    EXPECT_LE(resident_pages(copy), 8u);
    EXPECT_EQ(resident_pages(memory{}), 0u);
}

}  // namespace
}  // namespace pssp
