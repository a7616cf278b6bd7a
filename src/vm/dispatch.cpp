#include "vm/dispatch.hpp"

#include <atomic>
#include <cstdlib>

namespace pssp::vm {

std::string to_string(dispatch_mode mode) {
    switch (mode) {
        case dispatch_mode::threaded: return "threaded";
        case dispatch_mode::switch_loop: return "switch";
    }
    return "?";
}

std::optional<dispatch_mode> dispatch_from_string(const std::string& s) {
    if (s == "threaded") return dispatch_mode::threaded;
    if (s == "switch" || s == "switch_loop") return dispatch_mode::switch_loop;
    return std::nullopt;
}

namespace {

dispatch_mode env_default() noexcept {
    if (const char* env = std::getenv("PSSP_VM_DISPATCH")) {
        if (const auto parsed = dispatch_from_string(env)) return *parsed;
    }
    return dispatch_mode::threaded;
}

// Relaxed is enough: the knob is set once at tool startup (before any
// worker thread builds a machine); the atomic only keeps concurrent
// campaign workers reading a torn-free value.
std::atomic<dispatch_mode>& default_slot() noexcept {
    static std::atomic<dispatch_mode> slot{env_default()};
    return slot;
}

}  // namespace

dispatch_mode default_dispatch() noexcept {
    return default_slot().load(std::memory_order_relaxed);
}

void set_default_dispatch(dispatch_mode mode) noexcept {
    default_slot().store(mode, std::memory_order_relaxed);
}

const char* handler_name(std::uint16_t handler) noexcept {
#define PSSP_NAME(name) #name,
    static const char* const names[hop::count] = {
        PSSP_BASE_OPS(PSSP_NAME) PSSP_FUSED_OPS(PSSP_NAME)};
#undef PSSP_NAME
    return handler < hop::count ? names[handler] : "?";
}

decoded_op lower_op(const instruction& insn, std::uint32_t flow_target,
                    std::uint64_t return_addr, native_fn native) {
    decoded_op op;
    op.handler = static_cast<std::uint16_t>(insn.op);
    op.op = insn.op;
    op.r1 = insn.r1;
    op.r2 = insn.r2;
    op.x1 = insn.x1;
    op.x2 = insn.x2;
    op.fs = insn.mem.seg == segment::fs ? 1 : 0;
    op.mbase = insn.mem.base;
    op.disp = insn.mem.disp;
    op.target = flow_target;
    op.imm = insn.imm;
    op.return_addr = return_addr;
    op.native = native;
    return op;
}

decoded_op sentinel_op() noexcept {
    decoded_op op;
    op.handler = hop::sentinel;
    // op.op stays nop: the sentinel never charges the cost table — it only
    // reproduces the legacy loop's "rip past the end" invalid-jump trap.
    return op;
}

namespace {

// Conditional branches a compare/test/xor result can feed. jnc is excluded:
// it reads the carry flag, which only rdrand produces in this ISA, so a
// flags-producing first half adds nothing to it. jmp is excluded because it
// consumes no flags at all — fusing it buys no dispatch.
bool is_cc_branch(opcode op) noexcept {
    switch (op) {
        case opcode::je:
        case opcode::jne:
        case opcode::jb:
        case opcode::jae:
        case opcode::jl:
        case opcode::jge:
            return true;
        default:
            return false;
    }
}

}  // namespace

std::uint16_t fuse_pair(const instruction& a, const instruction& b) noexcept {
    switch (a.op) {
        case opcode::cmp_rr:
            return is_cc_branch(b.op) ? hop::fuse_cmp_rr_jcc : 0;
        case opcode::cmp_ri:
            return is_cc_branch(b.op) ? hop::fuse_cmp_ri_jcc : 0;
        case opcode::test_rr:
            return is_cc_branch(b.op) ? hop::fuse_test_rr_jcc : 0;
        case opcode::xor_rm:
            // The SSP epilogue's canary check: xor rcx, fs:0x28 ; jne fail.
            return is_cc_branch(b.op) ? hop::fuse_xor_rm_jcc : 0;
        case opcode::push_r:
            if (b.op == opcode::push_r) return hop::fuse_push_push;
            if (b.op == opcode::mov_rr) return hop::fuse_push_mov_rr;
            return 0;
        case opcode::mov_rm:
            return b.op == opcode::add_rr ? hop::fuse_mov_rm_add_rr : 0;
        case opcode::mov_mr:
            // Store-then-mix bodies (spill a scalar, xor an immediate in).
            return b.op == opcode::xor_ri ? hop::fuse_mov_mr_xor_ri : 0;
        case opcode::add_ri:
            // Leaf epilogues: accumulate into rax, return.
            return b.op == opcode::ret ? hop::fuse_add_ri_ret : 0;
        case opcode::sub_ri:
            // Loop back-edge counters: sub rdi,1 ; cmp rdi,0 (the jcc that
            // usually follows then fuses with the cmp's standalone slot).
            return b.op == opcode::cmp_ri ? hop::fuse_sub_ri_cmp_ri : 0;
        default:
            return 0;
    }
}

}  // namespace pssp::vm
