#include "binfmt/stdlib.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/aes128.hpp"
#include "crypto/one_way.hpp"
#include "vm/machine.hpp"

namespace pssp::binfmt {

using namespace vm::isa;
using vm::reg;
using vm::xreg;

namespace native {

namespace {

constexpr vm::native_status segfault_at(std::uint64_t addr) noexcept {
    return {vm::trap_kind::segfault, addr};
}

// Copies `len` bytes forward from `src` to `dst`, a region run at a time.
// The byte order of loads and stores is that of a one-byte-at-a-time loop,
// so an overlapping copy smears exactly as that loop does, and only the
// bytes written are marked dirty. Faults at the first unmapped byte; when
// src + i and dst + i are both unmapped it names the load, because the
// byte loop loads before it stores.
vm::native_status copy_forward(vm::memory& mem, std::uint64_t dst, std::uint64_t src,
                               std::uint64_t len) noexcept {
    for (std::uint64_t i = 0; i < len;) {
        const std::uint64_t from = mem.avail(src + i);
        if (from == 0) return segfault_at(src + i);
        const std::uint64_t to = mem.avail(dst + i);
        if (to == 0) return segfault_at(dst + i);
        const std::uint64_t n = std::min({len - i, from, to});
        const std::uint8_t* s = mem.try_at(src + i, n);
        std::uint8_t* d = mem.try_at_mut(dst + i, n);
        for (std::uint64_t k = 0; k < n; ++k) d[k] = s[k];
        i += n;
    }
    return {};
}

// Index of the first zero byte in [addr, addr + limit), or where the scan
// stopped: at `limit`, or at the first unmapped byte.
std::uint64_t find_zero(const vm::memory& mem, std::uint64_t addr,
                        std::uint64_t limit) noexcept {
    std::uint64_t i = 0;
    while (i < limit) {
        const std::uint64_t n = std::min(limit - i, mem.avail(addr + i));
        if (n == 0) break;
        const std::uint8_t* p = mem.try_at(addr + i, n);
        if (const void* zero = std::memchr(p, 0, n))
            return i + static_cast<std::uint64_t>(static_cast<const std::uint8_t*>(zero) - p);
        i += n;
    }
    return i;
}

}  // namespace

vm::native_status stack_chk_fail_abort(vm::machine& m) noexcept {
    return {vm::trap_kind::stack_smash, m.current_address()};
}

vm::native_status aes_encrypt_128(vm::machine& m) noexcept {
    const auto key = m.get_x(xreg::xmm1);
    const auto block = m.get_x(xreg::xmm15);
    const crypto::aes128 cipher{key.lo, key.hi};
    const auto ct = cipher.encrypt({block.lo, block.hi});
    m.set_x(xreg::xmm15, {ct.lo, ct.hi});
    m.charge(m.costs().aes_helper);
    return {};
}

vm::native_status sha1_owf_128(vm::machine& m) noexcept {
    const auto key = m.get_x(xreg::xmm1);
    const auto block = m.get_x(xreg::xmm15);  // lo = nonce, hi = ret
    const auto out = crypto::sha1_owf128(key.lo, key.hi, block.hi, block.lo);
    m.set_x(xreg::xmm15, {out.lo, out.hi});
    m.charge(690);  // software SHA-1 compression; no hardware assist
    return {};
}

vm::native_status strcpy_impl(vm::machine& m) noexcept {
    const std::uint64_t dst = m.get(reg::rdi);
    const std::uint64_t src = m.get(reg::rsi);
    // Copying forward, the loop reads its own output once src + i reaches
    // dst. So when dst lies above src, only the dst - src bytes before dst
    // are read as the caller left them, and without a terminator among
    // them the copy smears on until it faults.
    constexpr std::uint64_t unbounded = ~std::uint64_t{0};
    const std::uint64_t limit = dst > src ? dst - src : unbounded;
    const std::uint64_t stop = find_zero(m.mem(), src, limit);
    const std::uint64_t len = stop == limit ? unbounded : stop + 1;
    if (const auto st = copy_forward(m.mem(), dst, src, len); st.trap != vm::trap_kind::none)
        return st;
    m.set(reg::rax, dst);
    m.charge(2 * len + 4);
    return {};
}

vm::native_status memcpy_impl(vm::machine& m) noexcept {
    const std::uint64_t dst = m.get(reg::rdi);
    const std::uint64_t src = m.get(reg::rsi);
    const std::uint64_t len = m.get(reg::rdx);
    if (const auto st = copy_forward(m.mem(), dst, src, len); st.trap != vm::trap_kind::none)
        return st;
    m.set(reg::rax, dst);
    m.charge(2 * len + 4);
    return {};
}

vm::native_status memset_impl(vm::machine& m) noexcept {
    const std::uint64_t dst = m.get(reg::rdi);
    const auto value = static_cast<std::uint8_t>(m.get(reg::rsi));
    const std::uint64_t len = m.get(reg::rdx);
    for (std::uint64_t i = 0; i < len;) {
        const std::uint64_t n = std::min(len - i, m.mem().avail(dst + i));
        if (n == 0) return segfault_at(dst + i);
        std::memset(m.mem().try_at_mut(dst + i, n), value, n);
        i += n;
    }
    m.set(reg::rax, dst);
    m.charge(len + 4);
    return {};
}

vm::native_status strlen_impl(vm::machine& m) noexcept {
    const std::uint64_t s = m.get(reg::rdi);
    const std::uint64_t n = find_zero(m.mem(), s, ~std::uint64_t{0});
    if (m.mem().avail(s + n) == 0) return segfault_at(s + n);
    m.set(reg::rax, n);
    m.charge(n + 4);
    return {};
}

}  // namespace native

namespace {

// ---- VM-code libc (static_glibc) -------------------------------------------
// These are compiled without stack protection, like real glibc string
// routines (leaf functions with no local buffers get no canary under
// -fstack-protector), so every byte they copy is a *caller*-frame byte —
// which is exactly how an unbounded strcpy smashes the caller's canary.

void add_vm_strcpy(image& img) {
    auto& f = img.add_function(sym_strcpy, /*from_libc=*/true);
    const auto loop = f.new_label();
    f.emit(mov_rr(reg::rax, reg::rdi));
    f.place(loop);
    f.emit({movzx8_rm(reg::rcx, mem(reg::rsi, 0)), mov8_mr(mem(reg::rdi, 0), reg::rcx),
            add_ri(reg::rdi, 1), add_ri(reg::rsi, 1), test_rr(reg::rcx, reg::rcx),
            jne(loop), ret()});
}

void add_vm_memcpy(image& img) {
    auto& f = img.add_function(sym_memcpy, /*from_libc=*/true);
    const auto loop = f.new_label();
    const auto done = f.new_label();
    f.emit({mov_rr(reg::rax, reg::rdi), mov_rr(reg::rcx, reg::rdx)});
    f.place(loop);
    f.emit({test_rr(reg::rcx, reg::rcx), je(done), movzx8_rm(reg::r8, mem(reg::rsi, 0)),
            mov8_mr(mem(reg::rdi, 0), reg::r8), add_ri(reg::rdi, 1),
            add_ri(reg::rsi, 1), sub_ri(reg::rcx, 1), jmp(loop)});
    f.place(done);
    f.emit(ret());
}

void add_vm_memset(image& img) {
    auto& f = img.add_function(sym_memset, /*from_libc=*/true);
    const auto loop = f.new_label();
    const auto done = f.new_label();
    f.emit({mov_rr(reg::rax, reg::rdi), mov_rr(reg::rcx, reg::rdx)});
    f.place(loop);
    f.emit({test_rr(reg::rcx, reg::rcx), je(done), mov8_mr(mem(reg::rdi, 0), reg::rsi),
            add_ri(reg::rdi, 1), sub_ri(reg::rcx, 1), jmp(loop)});
    f.place(done);
    f.emit(ret());
}

void add_vm_strlen(image& img) {
    auto& f = img.add_function(sym_strlen, /*from_libc=*/true);
    const auto loop = f.new_label();
    const auto done = f.new_label();
    f.emit(mov_ri(reg::rax, 0));
    f.place(loop);
    f.emit({movzx8_rm(reg::rcx, mem(reg::rdi, 0)), test_rr(reg::rcx, reg::rcx), je(done),
            add_ri(reg::rdi, 1), add_ri(reg::rax, 1), jmp(loop)});
    f.place(done);
    f.emit(ret());
}

void add_vm_fork(image& img) {
    // fork() is a thin syscall wrapper in both modes; in a statically
    // instrumented binary the rewriter hooks this entry and redirects to a
    // P-SSP-aware version in the appended section (Section V-D).
    auto& f = img.add_function(sym_fork, /*from_libc=*/true);
    f.emit({syscall_i(static_cast<std::uint32_t>(vm::syscall_no::sys_fork)), ret()});
}

void add_vm_stack_chk_fail(image& img) {
    // Stock glibc shape (Fig 3, left side): report and abort. The VM
    // version "reports" by falling straight into __GI__fortify_fail.
    auto& fail = img.add_function(sym_fortify_fail, /*from_libc=*/true);
    fail.emit(trap_abort());

    auto& f = img.add_function(sym_stack_chk_fail, /*from_libc=*/true);
    f.emit({call_sym(img.sym(sym_fortify_fail)), ret()});
}

}  // namespace

void add_standard_library(image& img, link_mode mode) {
    // Crypto helpers model hardware / hand-tuned primitives: native in
    // both modes, costed via the cycle model.
    img.add_native_import(sym_aes_encrypt, native::aes_encrypt_128);
    img.add_native_import(sym_sha1_owf, native::sha1_owf_128);

    if (mode == link_mode::dynamic_glibc) {
        img.add_native_import(sym_strcpy, native::strcpy_impl);
        img.add_native_import(sym_memcpy, native::memcpy_impl);
        img.add_native_import(sym_memset, native::memset_impl);
        img.add_native_import(sym_strlen, native::strlen_impl);
        img.add_native_import(sym_stack_chk_fail, native::stack_chk_fail_abort);
        img.add_native_import(sym_fortify_fail, native::stack_chk_fail_abort);
        add_vm_fork(img);  // must execute a real syscall; kept as a VM stub
        return;
    }

    add_vm_strcpy(img);
    add_vm_memcpy(img);
    add_vm_memset(img);
    add_vm_strlen(img);
    add_vm_fork(img);
    add_vm_stack_chk_fail(img);
}

}  // namespace pssp::binfmt
