#include "vm/memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include <sys/mman.h>

#include "util/bytes.hpp"

namespace pssp::vm {

void* detail::map_pages(std::size_t bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc{};
    return p;
}

void detail::unmap_pages(void* p, std::size_t bytes) noexcept {
    if (p != nullptr) ::munmap(p, bytes);
}

namespace {

constexpr std::size_t page_align(std::size_t n) noexcept {
    return (n + memory::page_bytes - 1) & ~(memory::page_bytes - 1);
}

}  // namespace

memory::memory(const layout& lay) : layout_{lay} {
    // Stack first: it takes the overwhelming majority of interpreter
    // accesses (push/pop/locals), so the descriptor scan usually exits on
    // its first iteration. Page-aligned offsets keep a dirty page inside
    // one region, which makes restore diffs easy to reason about.
    const std::size_t stack_off = 0;
    const std::size_t globals_off = stack_off + page_align(lay.stack_size);
    const std::size_t tls_off = globals_off + page_align(lay.globals_size);
    desc_[0] = {lay.stack_top - lay.stack_size, lay.stack_size, stack_off};
    desc_[1] = {lay.globals_base, lay.globals_size, globals_off};
    desc_[2] = {lay.tls_base, lay.tls_size, tls_off};
    buf_.resize(tls_off + page_align(lay.tls_size));  // already zero, unwritten
    const std::size_t words = (buf_.size() / page_bytes + 63) / 64;
    dirty_[0].assign(words, 0);
    dirty_[1].assign(words, 0);
    touched_.assign(words, 0);
}

memory::memory(const memory& other)
    : layout_{other.layout_},
      desc_{other.desc_},
      buf_(other.buf_.size()),
      dirty_{other.dirty_},
      touched_{other.touched_} {
    for (std::size_t w = 0; w < touched_.size(); ++w)
        copy_pages(other, w, other.written(w));
}

memory& memory::operator=(const memory& other) {
    if (this == &other) return *this;
    if (buf_.size() != other.buf_.size()) return *this = memory{other};
    layout_ = other.layout_;
    desc_ = other.desc_;
    // Pages only this side wrote must become zero again.
    for (std::size_t w = 0; w < touched_.size(); ++w)
        copy_pages(other, w, written(w) | other.written(w));
    dirty_ = other.dirty_;
    touched_ = other.touched_;
    return *this;
}

void memory::copy_pages(const memory& src, std::size_t w,
                        std::uint64_t bits) noexcept {
    const std::uint64_t nonzero = src.written(w);
    while (bits != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t off = ((w << 6) + b) * page_bytes;
        const std::size_t n = std::min(page_bytes, buf_.size() - off);
        if ((nonzero >> b) & 1)
            std::memcpy(buf_.data() + off, src.buf_.data() + off, n);
        else
            std::memset(buf_.data() + off, 0, n);
    }
}

std::uint8_t memory::load8(std::uint64_t addr) const {
    const std::uint8_t* p = try_at(addr, 1);
    if (p == nullptr) throw mem_fault{addr, 1, "load8: unmapped address"};
    return *p;
}

std::uint32_t memory::load32(std::uint64_t addr) const {
    const std::uint8_t* p = try_at(addr, 4);
    if (p == nullptr) throw mem_fault{addr, 4, "load32: unmapped address"};
    return util::load_le32(std::span{p, 4});
}

std::uint64_t memory::load64(std::uint64_t addr) const {
    const std::uint8_t* p = try_at(addr, 8);
    if (p == nullptr) throw mem_fault{addr, 8, "load64: unmapped address"};
    return util::load_le64(std::span{p, 8});
}

void memory::store8(std::uint64_t addr, std::uint8_t value) {
    std::uint8_t* p = try_at_mut(addr, 1);
    if (p == nullptr) throw mem_fault{addr, 1, "store8: unmapped address"};
    *p = value;
}

void memory::store32(std::uint64_t addr, std::uint32_t value) {
    std::uint8_t* p = try_at_mut(addr, 4);
    if (p == nullptr) throw mem_fault{addr, 4, "store32: unmapped address"};
    util::store_le32(std::span{p, 4}, value);
}

void memory::store64(std::uint64_t addr, std::uint64_t value) {
    std::uint8_t* p = try_at_mut(addr, 8);
    if (p == nullptr) throw mem_fault{addr, 8, "store64: unmapped address"};
    util::store_le64(std::span{p, 8}, value);
}

void memory::read_bytes(std::uint64_t addr, std::span<std::uint8_t> out) const {
    if (out.empty()) return;  // empty span may carry a null data()
    const std::uint8_t* p = try_at(addr, out.size());
    if (p == nullptr) throw mem_fault{addr, out.size(), "read_bytes: unmapped range"};
    std::memcpy(out.data(), p, out.size());
}

void memory::write_bytes(std::uint64_t addr, std::span<const std::uint8_t> data) {
    if (data.empty()) return;  // empty span may carry a null data()
    std::uint8_t* p = try_at_mut(addr, data.size());
    if (p == nullptr) throw mem_fault{addr, data.size(), "write_bytes: unmapped range"};
    std::memcpy(p, data.data(), data.size());
}

void memory::mark_clean(dirty_channel channel) noexcept {
    auto& bits = dirty_[static_cast<unsigned>(channel)];
    for (std::size_t w = 0; w < bits.size(); ++w) {
        touched_[w] |= bits[w];
        bits[w] = 0;
    }
}

void memory::mark_all_clean() noexcept {
    mark_clean(dirty_channel::restore);
    mark_clean(dirty_channel::fork);
}

void memory::restore_from(const memory& snap) {
    if (snap.buf_.size() != buf_.size() ||
        std::memcmp(&snap.layout_, &layout_, sizeof layout_) != 0)
        throw std::invalid_argument{"memory::restore_from: layout mismatch"};
    auto& restore_bits = dirty_[static_cast<unsigned>(dirty_channel::restore)];
    auto& fork_bits = dirty_[static_cast<unsigned>(dirty_channel::fork)];
    for (std::size_t w = 0; w < restore_bits.size(); ++w) {
        const std::uint64_t bits = restore_bits[w];
        if (bits == 0) continue;
        copy_pages(snap, w, bits);
        fork_bits[w] |= bits;  // the restore itself changes those pages
        touched_[w] |= bits;
        restore_bits[w] = 0;
    }
}

void memory::sync_from(memory& src) {
    if (src.buf_.size() != buf_.size() ||
        std::memcmp(&src.layout_, &layout_, sizeof layout_) != 0)
        throw std::invalid_argument{"memory::sync_from: layout mismatch"};
    auto& mine = dirty_[static_cast<unsigned>(dirty_channel::fork)];
    auto& theirs = src.dirty_[static_cast<unsigned>(dirty_channel::fork)];
    for (std::size_t w = 0; w < mine.size(); ++w) {
        const std::uint64_t bits = mine[w] | theirs[w];
        if (bits == 0) continue;
        copy_pages(src, w, bits);
        touched_[w] |= bits;
        src.touched_[w] |= theirs[w];
        mine[w] = 0;
        theirs[w] = 0;
    }
}

std::size_t memory::dirty_pages(dirty_channel channel) const noexcept {
    std::size_t count = 0;
    for (const std::uint64_t word : dirty_[static_cast<unsigned>(channel)])
        count += static_cast<std::size_t>(std::popcount(word));
    return count;
}

bool memory::contains(std::uint64_t addr, std::size_t size) const noexcept {
    return try_at(addr, size) != nullptr;
}

std::span<const std::uint8_t> memory::stack_bytes() const noexcept {
    return {buf_.data() + desc_[0].off, static_cast<std::size_t>(desc_[0].size)};
}
std::span<const std::uint8_t> memory::tls_bytes() const noexcept {
    return {buf_.data() + desc_[2].off, static_cast<std::size_t>(desc_[2].size)};
}
std::span<const std::uint8_t> memory::globals_bytes() const noexcept {
    return {buf_.data() + desc_[1].off, static_cast<std::size_t>(desc_[1].size)};
}

std::size_t memory::resident_bytes() const noexcept {
    return layout_.globals_size + layout_.stack_size + layout_.tls_size;
}

}  // namespace pssp::vm
