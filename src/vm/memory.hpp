// Virtual memory of a simulated process.
//
// A small set of byte-addressable regions with W^X-style access checks:
//   * stack   — grows downward from stack_top; where canaries live and
//               where every overflow in this library actually lands;
//   * tls     — the thread-local storage block addressed via %fs. The TLS
//               canary C sits at fs+0x28 and the P-SSP shadow canary pair
//               (C0, C1) at fs+0x2a8..0x2b7, mirroring Section V-A;
//   * globals — .data/.bss analog for workload state and request buffers.
// Code is NOT mapped here: instruction fetch goes through the program
// object, so stray data writes can never modify text (and reads/writes to
// text addresses fault, as under a standard W^X policy).
//
// Storage is one contiguous buffer with the regions laid out back to back
// at page-aligned offsets; address resolution walks a three-entry flat
// descriptor array (stack first — it is by far the hottest region).
//
// The buffer is sparse: it is a fresh anonymous mapping, so it starts out
// zero without being written, and the kernel backs a page only once it is
// written. A booted master writes a handful of its 129 pages, so copying an
// image copies only the pages that may be non-zero (the touched pages plus
// both dirty channels) and leaves the rest unmapped in the copy. The
// interpreter and the native helpers use the noexcept accessors (try_*,
// avail) and turn an unmapped byte into a segfault trap without
// unwinding; the throwing accessors remain for code outside the run loop
// (scheme runtime hooks, the attack harness, tests) and raise mem_fault.
//
// Every store also marks the touched 4 KiB page dirty on two independent
// channels, which is what makes process snapshot/restore and fork cheap:
//   * channel restore — consumed by restore_from(): "pages changed since
//     the snapshot this memory was cloned from" (master reboot in the
//     trial pool);
//   * channel fork    — consumed by sync_from(): "pages where two
//     once-identical images have since diverged" (recycling one worker
//     machine across fork-per-request serves).
#pragma once

#include <array>
#include <cstdint>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pssp::vm {

// Default layout; chosen to look like a Linux x86-64 process.
inline constexpr std::uint64_t default_globals_base = 0x0000000000601000ull;
inline constexpr std::uint64_t default_globals_size = 256 * 1024;
inline constexpr std::uint64_t default_stack_top = 0x00007ffffffff000ull;
inline constexpr std::uint64_t default_stack_size = 256 * 1024;
inline constexpr std::uint64_t default_tls_base = 0x00007f7700000000ull;
inline constexpr std::uint64_t default_tls_size = 4096;

// Thrown on out-of-bounds or permission-violating access.
class mem_fault : public std::runtime_error {
  public:
    mem_fault(std::uint64_t addr, std::size_t size, const std::string& what)
        : std::runtime_error{what}, addr_{addr}, size_{size} {}
    [[nodiscard]] std::uint64_t addr() const noexcept { return addr_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

  private:
    std::uint64_t addr_;
    std::size_t size_;
};

// Region layout of a process image. At namespace scope (not nested) so it
// can serve as a defaulted constructor argument.
struct mem_layout {
    std::uint64_t globals_base = default_globals_base;
    std::uint64_t globals_size = default_globals_size;
    std::uint64_t stack_top = default_stack_top;
    std::uint64_t stack_size = default_stack_size;
    std::uint64_t tls_base = default_tls_base;
    std::uint64_t tls_size = default_tls_size;
};

// The two independent dirty-page tracking channels; see the header comment.
enum class dirty_channel : unsigned { restore = 0, fork = 1 };

// Allocates whole anonymous mappings (mmap/munmap) instead of malloc heap.
// A guest image is ~0.5 MB; from the malloc heap, whether a freed image's
// pages are reused or the heap grows depends on how the small objects
// allocated around it happen to fragment it, so a process's peak RSS moved
// by a whole image with allocation order and ASLR. With its own mapping an
// image's pages come and go with the image, and peak RSS is the peak of the
// live images' written pages. A fresh mapping reads as zero, so construct()
// default-initializes: value-initializing would write (and so fault in)
// every page just to store the zeros already there.
namespace detail {
[[nodiscard]] void* map_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes) noexcept;
}  // namespace detail

template <class T>
struct page_allocator {
    using value_type = T;
    page_allocator() noexcept = default;
    template <class U>
    page_allocator(const page_allocator<U>&) noexcept {}
    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(detail::map_pages(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        detail::unmap_pages(p, n * sizeof(T));
    }
    template <class U>
    void construct(U* p) noexcept {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U>
    bool operator==(const page_allocator<U>&) const noexcept {
        return true;
    }
};

class memory {
  public:
    using layout = mem_layout;

    static constexpr std::size_t page_bytes = 4096;

    explicit memory(const layout& lay = layout{});

    // Copies move only the pages that may be non-zero; the destination's
    // other pages stay zero (and, in a new image, unmapped).
    memory(const memory& other);
    memory& operator=(const memory& other);
    memory(memory&&) noexcept = default;
    memory& operator=(memory&&) noexcept = default;

    // Value accessors. Multi-byte accesses are little-endian and must lie
    // entirely inside one region. These throw mem_fault on violation.
    [[nodiscard]] std::uint8_t load8(std::uint64_t addr) const;
    [[nodiscard]] std::uint32_t load32(std::uint64_t addr) const;
    [[nodiscard]] std::uint64_t load64(std::uint64_t addr) const;
    void store8(std::uint64_t addr, std::uint8_t value);
    void store32(std::uint64_t addr, std::uint32_t value);
    void store64(std::uint64_t addr, std::uint64_t value);

    // Bulk accessors for native helpers and the attack harness.
    void read_bytes(std::uint64_t addr, std::span<std::uint8_t> out) const;
    void write_bytes(std::uint64_t addr, std::span<const std::uint8_t> data);

    // ---- Exception-free fast path (the interpreter and native helpers) ----
    // Pointer to [addr, addr+size) if mapped within one region, else null.
    [[nodiscard]] const std::uint8_t* try_at(std::uint64_t addr,
                                             std::size_t size) const noexcept {
        for (const auto& d : desc_) {
            const std::uint64_t off = addr - d.base;
            if (off < d.size && size <= d.size - off) return buf_.data() + d.off + off;
        }
        return nullptr;
    }

    // Bytes from `addr` to the end of its region; 0 if `addr` is unmapped.
    // Lets a native helper move a whole run through try_at/try_at_mut and
    // stop at exactly the first unmapped byte.
    [[nodiscard]] std::uint64_t avail(std::uint64_t addr) const noexcept {
        for (const auto& d : desc_) {
            const std::uint64_t off = addr - d.base;
            if (off < d.size) return d.size - off;
        }
        return 0;
    }

    // Mutable variant; marks the touched pages dirty on both channels.
    [[nodiscard]] std::uint8_t* try_at_mut(std::uint64_t addr,
                                           std::size_t size) noexcept {
        for (const auto& d : desc_) {
            const std::uint64_t off = addr - d.base;
            if (off < d.size && size <= d.size - off) {
                mark_dirty(d.off + off, size);
                return buf_.data() + d.off + off;
            }
        }
        return nullptr;
    }

    // ---- Snapshot / restore / fork fast paths ----
    // Resets dirty tracking on one channel or both.
    void mark_clean(dirty_channel channel) noexcept;
    void mark_all_clean() noexcept;

    // Rewinds this memory to `snap` (an earlier copy of *this* taken when
    // the restore channel was clean), copying only pages dirtied since.
    // Restored pages are re-marked dirty on the fork channel, so a worker
    // synced against this image still observes the change. Throws if the
    // two images have different layouts.
    void restore_from(const memory& snap);

    // Makes this memory byte-identical to `src`, assuming the two were
    // identical when both fork channels were last cleared: copies the union
    // of both sides' fork-dirty pages from `src`, then clears both fork
    // channels. The cheap half of fork(). Throws on layout mismatch.
    void sync_from(memory& src);

    // Dirty page count on `channel` (tests and pool statistics).
    [[nodiscard]] std::size_t dirty_pages(dirty_channel channel) const noexcept;

    // True if [addr, addr+size) is mapped within a single region.
    [[nodiscard]] bool contains(std::uint64_t addr, std::size_t size = 1) const noexcept;

    [[nodiscard]] const layout& regions() const noexcept { return layout_; }

    // Direct spans, used by tests that inspect raw stack bytes around the
    // canary and by the leak-oriented attack code.
    [[nodiscard]] std::span<const std::uint8_t> stack_bytes() const noexcept;
    [[nodiscard]] std::span<const std::uint8_t> tls_bytes() const noexcept;
    [[nodiscard]] std::span<const std::uint8_t> globals_bytes() const noexcept;

    // Resident set analog: bytes of backing store, for Table IV's memory
    // usage column.
    [[nodiscard]] std::size_t resident_bytes() const noexcept;

  private:
    // Region descriptor: virtual base/size plus the region's offset into
    // the contiguous backing buffer. Offsets (not raw pointers) keep the
    // default copy operations correct.
    struct descriptor {
        std::uint64_t base = 0;
        std::uint64_t size = 0;
        std::size_t off = 0;
    };

    layout layout_;
    std::array<descriptor, 3> desc_{};  // lookup order: stack, globals, tls
    std::vector<std::uint8_t, page_allocator<std::uint8_t>> buf_;
    // One bit per page of buf_, per channel.
    std::array<std::vector<std::uint64_t>, 2> dirty_{};
    // One bit per page of buf_. Every dirty bit that is cleared is folded
    // in here, so a page outside touched_ and both channels is still zero.
    std::vector<std::uint64_t> touched_;

    // Pages of bitmap word `w` that may be non-zero.
    [[nodiscard]] std::uint64_t written(std::size_t w) const noexcept {
        return touched_[w] | dirty_[0][w] | dirty_[1][w];
    }
    // Makes the pages `bits` of word `w` equal to src's. A page src never
    // wrote is zero-filled here, not read: reading it would fault it in.
    void copy_pages(const memory& src, std::size_t w, std::uint64_t bits) noexcept;

    void mark_dirty(std::size_t buf_off, std::size_t size) noexcept {
        if (size == 0) return;  // the -1 below would wrap
        const std::size_t first = buf_off / page_bytes;
        const std::size_t last = (buf_off + size - 1) / page_bytes;
        for (std::size_t p = first; p <= last; ++p) {
            const std::uint64_t bit = std::uint64_t{1} << (p & 63);
            dirty_[0][p >> 6] |= bit;
            dirty_[1][p >> 6] |= bit;
        }
    }
};

}  // namespace pssp::vm
