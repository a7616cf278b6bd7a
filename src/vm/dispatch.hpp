// Direct-threaded dispatch: the decoded-op stream behind machine::run().
//
// program::finalize() lowers every instruction into one `decoded_op` — a
// flat, cache-friendly record carrying a handler id, the pre-extracted
// operands, and the pre-resolved control flow — and appends a trapping
// sentinel op past the end of the stream. The interpreter's hot loop then
// needs no per-iteration bounds check (falling off the end lands on the
// sentinel, and every jump target was validated at lowering time) and no
// per-step result construction: each handler jumps straight to the next
// op's handler (computed goto under GCC/Clang, a token-threaded switch
// over the same handler ids elsewhere).
//
// On top of the 1:1 lowering, a fusion pass upgrades the hottest adjacent
// pairs in the seed workloads (compare+branch back-edges, the push/mov
// frame prologue, load+accumulate bodies, and the SSP epilogue's
// xor-canary-then-jne check) into superinstructions: position i gets a
// fused handler that executes insns i and i+1 in one dispatch. The stream
// layout is untouched — position i+1 keeps its standalone lowering, so a
// jump into the middle of a fused pair executes exactly as before, and a
// fuel boundary between the halves pauses with rip on the second half.
// Fused execution charges each half's cost-table entry in order and
// attributes a second-half fault to the second instruction, so cycles_,
// steps_, rip and fault state stay observation-equivalent to the
// one-instruction-at-a-time stepper at every event boundary.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "vm/isa.hpp"

namespace pssp::vm {

class machine;  // forward; native helpers receive the executing machine

enum class trap_kind : std::uint8_t {
    none,
    stack_smash,    // __stack_chk_fail -> __GI__fortify_fail analog
    segfault,       // unmapped or mis-sized memory access
    invalid_jump,   // control transferred to a non-instruction address
    stack_overrun,  // rsp left the stack region
};

// How the simulated process goes on after a native helper: `{}` returns to
// the caller; any other trap ends the run as `trapped` with this fault
// address, exactly as an interpreter-level fault would.
struct native_status {
    trap_kind trap = trap_kind::none;
    std::uint64_t fault_addr = 0;
};

// Host-implemented helper bound to a text address (PLT analog). Invoked by
// `call`; arguments/results pass through the machine's registers per SysV.
// A plain noexcept function: helpers report crashes by returning a trap
// status (a smashed stack, or the first unmapped byte of a string copy),
// so no exception ever crosses the native-call edge, and a helper that
// touches memory must use the memory's non-throwing accessors. A helper
// that traps charges no cycles and leaves its result registers untouched.
using native_fn = native_status (*)(machine&) noexcept;

// ---- Dispatch-mode selection ----------------------------------------------
// Purely an execution-speed knob, like campaign jobs counts and master
// reuse: both engines drive the same architectural state, so everything
// outcome-relevant (registers, flags, memory, output, cycles_, steps_,
// traps) is byte-identical across modes — campaign reports included.
enum class dispatch_mode : std::uint8_t {
    threaded,     // decoded-op stream, superinstructions, batched accounting
    switch_loop,  // legacy per-instruction switch stepper (debug/differential)
};

[[nodiscard]] std::string to_string(dispatch_mode mode);
[[nodiscard]] std::optional<dispatch_mode> dispatch_from_string(const std::string& s);

// Process-wide default consulted at machine construction. Initialized from
// the PSSP_VM_DISPATCH environment variable ("threaded" / "switch") on
// first use so fork/exec'd campaign workers inherit the parent's mode;
// falls back to threaded. set_default_dispatch overrides it in-process.
[[nodiscard]] dispatch_mode default_dispatch() noexcept;
void set_default_dispatch(dispatch_mode mode) noexcept;

// ---- Handler ids ----------------------------------------------------------
// Values below opcode_count are the 1:1 lowering (handler id == opcode);
// the fused superinstructions follow, then the end-of-stream sentinel.
// A plain uint16, not an enum class, because the dispatch table is indexed
// with it on every executed instruction.
namespace hop {
inline constexpr std::uint16_t fuse_cmp_rr_jcc = opcode_count + 0;
inline constexpr std::uint16_t fuse_cmp_ri_jcc = opcode_count + 1;
inline constexpr std::uint16_t fuse_test_rr_jcc = opcode_count + 2;
inline constexpr std::uint16_t fuse_xor_rm_jcc = opcode_count + 3;  // canary check
inline constexpr std::uint16_t fuse_push_push = opcode_count + 4;
inline constexpr std::uint16_t fuse_push_mov_rr = opcode_count + 5;  // frame setup
inline constexpr std::uint16_t fuse_mov_rm_add_rr = opcode_count + 6;
inline constexpr std::uint16_t fuse_sub_ri_cmp_ri = opcode_count + 7;
inline constexpr std::uint16_t fuse_mov_mr_xor_ri = opcode_count + 8;
inline constexpr std::uint16_t fuse_add_ri_ret = opcode_count + 9;  // leaf epilogue
inline constexpr std::uint16_t sentinel = opcode_count + 10;  // end-of-stream trap
inline constexpr std::size_t count = opcode_count + 11;
}  // namespace hop

// X-macro lists of every handler in jump-table order: base ops exactly in
// opcode-enum order, then the fused ids in hop order. The threaded
// engine's jump table and the handler-name table are both generated from
// these, so the id<->position correspondence cannot drift between them.
#define PSSP_BASE_OPS(X)                                                       \
    X(nop) X(push_r) X(push_i) X(pop_r) X(mov_rr) X(mov_ri) X(mov_rm)          \
    X(mov_mr) X(mov_mi) X(mov32_rm) X(mov32_mr) X(movzx8_rm) X(mov8_mr)        \
    X(lea) X(add_rr) X(add_ri) X(sub_rr) X(sub_ri) X(xor_rr) X(xor_ri)         \
    X(xor_rm) X(or_rr) X(and_ri) X(shl_ri) X(shr_ri) X(imul_rr) X(imul_ri)     \
    X(cmp_rr) X(cmp_ri) X(cmp_rm) X(test_rr) X(je) X(jne) X(jb) X(jae) X(jl)   \
    X(jge) X(jnc) X(jmp) X(call) X(ret) X(leave) X(rdrand_r) X(rdtsc)          \
    X(movq_xr) X(movq_rx) X(movhps_xm) X(punpckhqdq_xr) X(movdqu_mx)           \
    X(movdqu_xm) X(cmp128_xm) X(syscall_i) X(trap_abort) X(hlt) X(sim_delay)

#define PSSP_FUSED_OPS(X)                                                      \
    X(fuse_cmp_rr_jcc) X(fuse_cmp_ri_jcc) X(fuse_test_rr_jcc)                  \
    X(fuse_xor_rm_jcc) X(fuse_push_push) X(fuse_push_mov_rr)                   \
    X(fuse_mov_rm_add_rr) X(fuse_sub_ri_cmp_ri) X(fuse_mov_mr_xor_ri)          \
    X(fuse_add_ri_ret) X(sentinel)

// ---- Execution profiles (obs telemetry) -----------------------------------
// Optional per-handler hit/cycle counters for machine::run(): one slot per
// handler id, superinstructions included, so a profile ranks exactly what
// the dispatcher dispatches — the block-selection input a baseline JIT
// wants. A machine profiles only when given a profile via set_profile();
// the pointer is shared through snapshot/fork copies, so every clone of a
// profiled master aggregates into one table. Counters are plain (not
// atomic): profile runs are single-threaded bench runs, and the unprofiled
// hot loop is a separate template instantiation that touches none of this.
struct exec_profile {
    std::array<std::uint64_t, hop::count> hits{};    // dispatches per handler
    std::array<std::uint64_t, hop::count> cycles{};  // cost-model cycles charged
};

// Static name for a handler id ("mov_rm", "fuse_cmp_ri_jcc", ...) — the
// X-macro-generated twin of the jump table; "?" past hop::count.
[[nodiscard]] const char* handler_name(std::uint16_t handler) noexcept;

// ---- Lowering metadata ------------------------------------------------------
// True for superinstruction handler ids: the record at this position
// executes its own instruction AND the next one in a single dispatch. The
// sentinel is not fused — it consumes nothing.
[[nodiscard]] constexpr bool is_fused_handler(std::uint16_t handler) noexcept {
    return handler >= opcode_count && handler != hop::sentinel &&
           handler < hop::count;
}

// Number of instruction-stream slots one dispatch of `handler` retires:
// 2 for fused pairs, 1 otherwise (sentinel included — it traps in place).
// CFG recovery uses this to place block walls: a fused position i implies
// positions i and i+1 execute back-to-back *when entered at i*, while an
// entry at i+1 (a jump into the pair middle) runs the standalone record
// kept there — so fusion never changes reachable block boundaries, only
// annotates them.
[[nodiscard]] constexpr unsigned handler_width(std::uint16_t handler) noexcept {
    return is_fused_handler(handler) ? 2u : 1u;
}

// One decoded op: everything a handler touches, in one 48-byte record
// (instruction operands + resolved flow live in three parallel arrays on
// the legacy path). Fused handlers read their second half from the next
// record — adjacent in the same cache stream — so fusion never widens the
// layout; it only swaps the handler id at the first half's position.
struct decoded_op {
    std::uint16_t handler = 0;      // hop id; base ops: == static_cast(op)
    opcode op = opcode::nop;        // original opcode: cost-table index
    reg r1 = reg::none;
    reg r2 = reg::none;
    xreg x1 = xreg::none;
    xreg x2 = xreg::none;
    std::uint8_t fs = 0;            // memory operand is %fs-relative
    reg mbase = reg::none;          // memory operand base register
    std::int32_t disp = 0;          // memory operand displacement
    std::uint32_t target = no_id;   // pre-resolved jmp/jcc/call target index
    std::uint64_t imm = 0;
    std::uint64_t return_addr = 0;  // call: address of the next instruction
    native_fn native = nullptr;     // call: bound native helper
};

// 1:1 lowering of one instruction plus its pre-resolved flow fields into a
// decoded op. Fusion and the sentinel are program::finalize()'s job.
[[nodiscard]] decoded_op lower_op(const instruction& insn, std::uint32_t flow_target,
                                  std::uint64_t return_addr, native_fn native);

// The trapping end-of-stream record (hop::sentinel).
[[nodiscard]] decoded_op sentinel_op() noexcept;

// Fused handler id for the adjacent pair (a, b), or 0 when the pair is not
// a recognized superinstruction. Positions are upgraded independently —
// overlapping matches are fine because a fused op always re-enters the
// stream two slots down, where every record still has its standalone form.
[[nodiscard]] std::uint16_t fuse_pair(const instruction& a, const instruction& b) noexcept;

}  // namespace pssp::vm
