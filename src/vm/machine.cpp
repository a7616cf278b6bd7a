#include "vm/machine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/bytes.hpp"

namespace pssp::vm {

std::string to_string(exec_status status) {
    switch (status) {
        case exec_status::running: return "running";
        case exec_status::exited: return "exited";
        case exec_status::trapped: return "trapped";
        case exec_status::syscalled: return "syscalled";
        case exec_status::out_of_fuel: return "out_of_fuel";
    }
    return "?";
}

std::string to_string(trap_kind trap) {
    switch (trap) {
        case trap_kind::none: return "none";
        case trap_kind::stack_smash: return "stack_smash";
        case trap_kind::segfault: return "segfault";
        case trap_kind::invalid_jump: return "invalid_jump";
        case trap_kind::stack_overrun: return "stack_overrun";
    }
    return "?";
}

machine::machine(std::shared_ptr<const program> prog, memory::layout layout,
                 std::uint64_t entropy_seed)
    : prog_{std::move(prog)},
      mem_{layout},
      fs_base_{layout.tls_base},
      entropy_{entropy_seed} {
    if (!prog_) throw std::invalid_argument{"machine requires a program"};
    if (prog_->flow.size() != prog_->insns.size() ||
        prog_->code.size() != prog_->insns.size() + 1)
        throw std::invalid_argument{
            "machine requires a finalized program (program::finalize resolves "
            "control flow and lowers the decoded stream; "
            "linked_binary::make_program does this for you)"};
    gpr_[static_cast<std::size_t>(reg::rsp)] = layout.stack_top - initial_stack_headroom;
}

std::uint64_t machine::get(reg r) const noexcept {
    assert(r != reg::none);
    return gpr_[static_cast<std::size_t>(r)];
}

void machine::set(reg r, std::uint64_t value) noexcept {
    assert(r != reg::none);
    gpr_[static_cast<std::size_t>(r)] = value;
}

machine::xmm_value machine::get_x(xreg x) const noexcept {
    assert(x != xreg::none);
    return xmm_[static_cast<std::size_t>(x)];
}

void machine::set_x(xreg x, xmm_value value) noexcept {
    assert(x != xreg::none);
    xmm_[static_cast<std::size_t>(x)] = value;
}

std::uint64_t machine::effective_address(const mem_operand& m) const noexcept {
    std::uint64_t addr = static_cast<std::uint64_t>(static_cast<std::int64_t>(m.disp));
    if (m.base != reg::none) addr += get(m.base);
    if (m.seg == segment::fs) addr += fs_base_;
    return addr;
}

bool machine::ld(std::uint64_t addr, std::size_t size, std::uint64_t& value,
                 run_result& out) noexcept {
    if (const std::uint8_t* p = mem_.try_at(addr, size)) [[likely]] {
        switch (size) {
            case 1: value = *p; break;
            case 4: value = util::load_le32(std::span{p, 4}); break;
            default: value = util::load_le64(std::span{p, 8}); break;
        }
        return true;
    }
    out.status = exec_status::trapped;
    out.trap = trap_kind::segfault;
    out.fault_addr = addr;
    return false;
}

bool machine::st(std::uint64_t addr, std::size_t size, std::uint64_t value,
                 run_result& out) noexcept {
    if (std::uint8_t* p = mem_.try_at_mut(addr, size)) [[likely]] {
        switch (size) {
            case 1: *p = static_cast<std::uint8_t>(value); break;
            case 4: util::store_le32(std::span{p, 4},
                                     static_cast<std::uint32_t>(value)); break;
            default: util::store_le64(std::span{p, 8}, value); break;
        }
        return true;
    }
    out.status = exec_status::trapped;
    out.trap = trap_kind::segfault;
    out.fault_addr = addr;
    return false;
}

bool machine::push64(std::uint64_t value, run_result& out) noexcept {
    const std::uint64_t rsp = get(reg::rsp) - 8;
    if (!st(rsp, 8, value, out)) return false;
    set(reg::rsp, rsp);
    return true;
}

bool machine::pop64(std::uint64_t& value, run_result& out) noexcept {
    const std::uint64_t rsp = get(reg::rsp);
    if (!ld(rsp, 8, value, out)) return false;
    set(reg::rsp, rsp + 8);
    return true;
}

bool machine::jump_to(std::uint64_t addr, run_result& out) {
    const std::uint32_t index = prog_->index_of(addr);
    if (index == no_id) {
        out.status = exec_status::trapped;
        out.trap = trap_kind::invalid_jump;
        out.fault_addr = addr;
        return false;
    }
    rip_ = index;
    return true;
}

void machine::call_function(std::uint64_t entry) {
    finished_valid_ = false;
    set(reg::rsp, mem_.regions().stack_top - initial_stack_headroom);
    mem_.store64(get(reg::rsp) - 8, return_sentinel);
    set(reg::rsp, get(reg::rsp) - 8);
    const std::uint32_t index = prog_->index_of(entry);
    if (index == no_id)
        throw std::invalid_argument{"call_function: entry is not an instruction start"};
    rip_ = index;
    rip_valid_ = true;
}

void machine::complete_syscall(std::uint64_t rax_value) {
    set(reg::rax, rax_value);
}

void machine::set_alu_flags(std::uint64_t result) noexcept {
    flags_.zf = result == 0;
}

run_result machine::exec_one_switch(const cost_table& ct) {
    run_result out;
    const instruction& insn = prog_->insns[rip_];
    cycles_ += ct[insn.op];
    ++steps_;

    // Most instructions fall through; control flow overrides this.
    std::uint32_t next_rip = rip_ + 1;

    switch (insn.op) {
        case opcode::nop:
            break;
        case opcode::push_r:
            if (!push64(get(insn.r1), out)) return out;
            break;
        case opcode::push_i:
            if (!push64(insn.imm, out)) return out;
            break;
        case opcode::pop_r: {
            std::uint64_t v;
            if (!pop64(v, out)) return out;
            set(insn.r1, v);
            break;
        }
        case opcode::mov_rr:
            set(insn.r1, get(insn.r2));
            break;
        case opcode::mov_ri:
            set(insn.r1, insn.imm);
            break;
        case opcode::mov_rm: {
            std::uint64_t v;
            if (!ld(effective_address(insn.mem), 8, v, out)) return out;
            set(insn.r1, v);
            break;
        }
        case opcode::mov_mr:
            if (!st(effective_address(insn.mem), 8, get(insn.r2), out)) return out;
            break;
        case opcode::mov_mi:
            if (!st(effective_address(insn.mem), 8, insn.imm, out)) return out;
            break;
        case opcode::mov32_rm: {
            std::uint64_t v;
            if (!ld(effective_address(insn.mem), 4, v, out)) return out;
            set(insn.r1, v);
            break;
        }
        case opcode::mov32_mr:
            if (!st(effective_address(insn.mem), 4,
                    static_cast<std::uint32_t>(get(insn.r2)), out))
                return out;
            break;
        case opcode::movzx8_rm: {
            std::uint64_t v;
            if (!ld(effective_address(insn.mem), 1, v, out)) return out;
            set(insn.r1, v);
            break;
        }
        case opcode::mov8_mr:
            if (!st(effective_address(insn.mem), 1,
                    static_cast<std::uint8_t>(get(insn.r2)), out))
                return out;
            break;
        case opcode::lea:
            set(insn.r1, effective_address(insn.mem));
            break;
        case opcode::add_rr: {
            const std::uint64_t v = get(insn.r1) + get(insn.r2);
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::add_ri: {
            const std::uint64_t v = get(insn.r1) + insn.imm;
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::sub_rr: {
            const std::uint64_t v = get(insn.r1) - get(insn.r2);
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::sub_ri: {
            const std::uint64_t v = get(insn.r1) - insn.imm;
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::xor_rr: {
            const std::uint64_t v = get(insn.r1) ^ get(insn.r2);
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::xor_ri: {
            const std::uint64_t v = get(insn.r1) ^ insn.imm;
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::xor_rm: {
            std::uint64_t mval;
            if (!ld(effective_address(insn.mem), 8, mval, out)) return out;
            const std::uint64_t v = get(insn.r1) ^ mval;
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::or_rr: {
            const std::uint64_t v = get(insn.r1) | get(insn.r2);
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::and_ri: {
            const std::uint64_t v = get(insn.r1) & insn.imm;
            set(insn.r1, v);
            set_alu_flags(v);
            break;
        }
        case opcode::shl_ri:
            set(insn.r1, get(insn.r1) << (insn.imm & 63));
            set_alu_flags(get(insn.r1));
            break;
        case opcode::shr_ri:
            set(insn.r1, get(insn.r1) >> (insn.imm & 63));
            set_alu_flags(get(insn.r1));
            break;
        case opcode::imul_rr:
            set(insn.r1, get(insn.r1) * get(insn.r2));
            break;
        case opcode::imul_ri:
            set(insn.r1, get(insn.r1) * insn.imm);
            break;
        case opcode::cmp_rr:
        case opcode::cmp_ri:
        case opcode::cmp_rm: {
            const std::uint64_t a = get(insn.r1);
            std::uint64_t b = 0;
            if (insn.op == opcode::cmp_rr) {
                b = get(insn.r2);
            } else if (insn.op == opcode::cmp_ri) {
                b = insn.imm;
            } else {
                if (!ld(effective_address(insn.mem), 8, b, out)) return out;
            }
            flags_.zf = a == b;
            flags_.lt_unsigned = a < b;
            flags_.lt_signed = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
            break;
        }
        case opcode::test_rr:
            flags_.zf = (get(insn.r1) & get(insn.r2)) == 0;
            break;
        case opcode::je:
        case opcode::jne:
        case opcode::jb:
        case opcode::jae:
        case opcode::jl:
        case opcode::jge:
        case opcode::jnc:
        case opcode::jmp: {
            bool taken = true;
            switch (insn.op) {
                case opcode::je: taken = flags_.zf; break;
                case opcode::jne: taken = !flags_.zf; break;
                case opcode::jb: taken = flags_.lt_unsigned; break;
                case opcode::jae: taken = !flags_.lt_unsigned; break;
                case opcode::jl: taken = flags_.lt_signed; break;
                case opcode::jge: taken = !flags_.lt_signed; break;
                case opcode::jnc: taken = !flags_.cf; break;
                default: break;  // jmp
            }
            if (taken) {
                const std::uint32_t target = prog_->flow[rip_].target;
                if (target == no_id) {
                    out.status = exec_status::trapped;
                    out.trap = trap_kind::invalid_jump;
                    out.fault_addr = insn.imm;
                    return out;
                }
                next_rip = target;
            }
            break;
        }
        case opcode::call: {
            const resolved_flow& fl = prog_->flow[rip_];
            if (fl.native != nullptr) {
                // Native helper: model the full call/ret round trip so the
                // helper can observe a genuine frame (return address on the
                // stack) while executing host-side.
                if (!push64(fl.return_addr, out)) return out;
                if (const native_status ns = fl.native(*this); ns.trap != trap_kind::none) {
                    out.status = exec_status::trapped;
                    out.trap = ns.trap;
                    out.fault_addr = ns.fault_addr;
                    return out;
                }
                std::uint64_t back;
                if (!pop64(back, out)) return out;
                if (back != fl.return_addr) {
                    if (!jump_to(back, out)) return out;
                    next_rip = rip_;
                }
                break;
            }
            if (fl.target == no_id) {
                out.status = exec_status::trapped;
                out.trap = trap_kind::invalid_jump;
                out.fault_addr = insn.imm;
                return out;
            }
            if (!push64(fl.return_addr, out)) return out;
            next_rip = fl.target;
            break;
        }
        case opcode::ret: {
            // The popped target is data from the simulated stack — exactly
            // what an overflow corrupts — so it must resolve dynamically.
            std::uint64_t target;
            if (!pop64(target, out)) return out;
            if (target == return_sentinel) {
                out.status = exec_status::exited;
                out.exit_code = static_cast<std::int64_t>(get(reg::rax));
                return out;
            }
            if (!jump_to(target, out)) return out;
            next_rip = rip_;
            break;
        }
        case opcode::leave: {
            set(reg::rsp, get(reg::rbp));
            std::uint64_t v;
            if (!pop64(v, out)) return out;
            set(reg::rbp, v);
            break;
        }
        case opcode::rdrand_r: {
            std::uint64_t value = 0;
            flags_.cf = entropy_.rdrand64(value);
            if (flags_.cf) set(insn.r1, value);
            break;
        }
        case opcode::rdtsc: {
            const std::uint64_t tsc = tsc_base_ + cycles_;
            set(reg::rax, tsc & 0xffffffffull);
            set(reg::rdx, tsc >> 32);
            break;
        }
        case opcode::movq_xr: {
            xmm_value x = get_x(insn.x1);
            x.lo = get(insn.r2);
            x.hi = 0;
            set_x(insn.x1, x);
            break;
        }
        case opcode::movq_rx:
            set(insn.r1, get_x(insn.x2).lo);
            break;
        case opcode::movhps_xm: {
            xmm_value x = get_x(insn.x1);
            if (!ld(effective_address(insn.mem), 8, x.hi, out)) return out;
            set_x(insn.x1, x);
            break;
        }
        case opcode::punpckhqdq_xr: {
            xmm_value x = get_x(insn.x1);
            x.hi = get(insn.r2);
            set_x(insn.x1, x);
            break;
        }
        case opcode::movdqu_mx: {
            const std::uint64_t addr = effective_address(insn.mem);
            const xmm_value x = get_x(insn.x2);
            if (!st(addr, 8, x.lo, out)) return out;
            if (!st(addr + 8, 8, x.hi, out)) return out;
            break;
        }
        case opcode::movdqu_xm: {
            const std::uint64_t addr = effective_address(insn.mem);
            std::uint64_t lo, hi;
            if (!ld(addr, 8, lo, out)) return out;
            if (!ld(addr + 8, 8, hi, out)) return out;
            set_x(insn.x1, {lo, hi});
            break;
        }
        case opcode::cmp128_xm: {
            const std::uint64_t addr = effective_address(insn.mem);
            const xmm_value x = get_x(insn.x1);
            std::uint64_t lo, hi;
            if (!ld(addr, 8, lo, out)) return out;
            if (!ld(addr + 8, 8, hi, out)) return out;
            flags_.zf = x.lo == lo && x.hi == hi;
            break;
        }
        case opcode::syscall_i: {
            const auto number = static_cast<std::uint32_t>(insn.imm);
            switch (static_cast<syscall_no>(number)) {
                case syscall_no::sys_exit:
                    out.status = exec_status::exited;
                    out.exit_code = static_cast<std::int64_t>(get(reg::rdi));
                    return out;
                case syscall_no::sys_getpid:
                    set(reg::rax, pid_);
                    break;
                case syscall_no::sys_write: {
                    const std::uint64_t buf = get(reg::rsi);
                    const std::uint64_t count = get(reg::rdx);
                    const std::uint8_t* p = mem_.try_at(buf, count);
                    if (p == nullptr) {
                        out.status = exec_status::trapped;
                        out.trap = trap_kind::segfault;
                        out.fault_addr = buf;
                        return out;
                    }
                    // Append straight out of guest memory — no temporary —
                    // and stop retaining bytes past the output cap.
                    if (output_.size() < max_output_bytes) {
                        const std::size_t take = std::min<std::size_t>(
                            count, max_output_bytes - output_.size());
                        output_.append(reinterpret_cast<const char*>(p), take);
                    }
                    set(reg::rax, count);
                    break;
                }
                case syscall_no::sys_fork:
                    // Serviced by the process layer: stop with rip already
                    // advanced so both parent and child resume after the
                    // syscall once complete_syscall() fills in rax.
                    rip_ = next_rip;
                    out.status = exec_status::syscalled;
                    out.syscall_number = number;
                    return out;
            }
            break;
        }
        case opcode::trap_abort:
            out.status = exec_status::trapped;
            out.trap = trap_kind::stack_smash;
            out.fault_addr = prog_->addrs[rip_];
            return out;
        case opcode::hlt:
            out.status = exec_status::exited;
            out.exit_code = static_cast<std::int64_t>(get(reg::rax));
            return out;
        case opcode::sim_delay:
            // Cost-model artifact; no architectural effect. Its per-site
            // cycle charge lives in the immediate (the flat table only
            // carries the dbi_tax component).
            cycles_ += insn.imm;
            break;
    }

    rip_ = next_rip;
    out.status = exec_status::running;
    return out;
}

run_result machine::run(std::uint64_t max_steps) {
    if (dispatch_ == dispatch_mode::threaded)
        return profile_ ? run_threaded_impl<true>(max_steps)
                        : run_threaded_impl<false>(max_steps);
    return run_switch(max_steps);
}

run_result machine::step() { return run_switch(1); }

const cost_table& machine::refresh_cost_cache() {
    if (!cost_cache_ || !(cost_cache_key_ == costs_)) {
        cost_cache_ = std::make_shared<const cost_table>(costs_.table());
        cost_cache_key_ = costs_;
    }
    return *cost_cache_;
}

run_result machine::run_switch(std::uint64_t max_steps) {
    if (finished_valid_) return finished_;
    if (!rip_valid_) throw std::logic_error{"machine::run before call_function"};

    const cost_table& ct = refresh_cost_cache();

    run_result out;
    std::uint64_t executed = 0;
    for (;;) {
        if (fuel_ != 0 && steps_ >= fuel_) {
            out.status = exec_status::out_of_fuel;
            break;
        }
        if (max_steps != 0 && executed >= max_steps) {
            out.status = exec_status::running;
            return out;  // resumable: not a terminal state
        }
        if (rip_ >= prog_->insns.size()) {
            out.status = exec_status::trapped;
            out.trap = trap_kind::invalid_jump;
            out.fault_addr = current_address();
            break;
        }
        if (profile_ != nullptr) {
            // Debug-engine profiling: attribute by opcode (the stepper
            // never executes fused ids) and charge by cycle delta, which
            // also captures sim_delay's per-site immediate.
            const auto handler = static_cast<std::uint16_t>(prog_->insns[rip_].op);
            const std::uint64_t before = cycles_;
            out = exec_one_switch(ct);
            ++profile_->hits[handler];
            profile_->cycles[handler] += cycles_ - before;
        } else {
            out = exec_one_switch(ct);
        }
        ++executed;
        if (out.status == exec_status::syscalled) return out;  // resumable
        if (out.status != exec_status::running) break;
    }
    finished_ = out;
    finished_valid_ = true;
    return out;
}

// ---- Direct-threaded engine ------------------------------------------------
// One dispatch per decoded op: computed goto under GCC/Clang, a
// token-threaded switch over the same handler ids elsewhere. The X-macro
// lists below must stay in opcode-enum / hop-id order — they generate the
// jump table positionally; the dispatch unit tests and the differential
// stepper test pin the correspondence.

#if defined(__GNUC__) || defined(__clang__)
#define PSSP_COMPUTED_GOTO 1
#else
#define PSSP_COMPUTED_GOTO 0
#endif

// PSSP_BASE_OPS / PSSP_FUSED_OPS — the positional handler lists shared
// with the handler-name table — live in vm/dispatch.hpp.

#if PSSP_COMPUTED_GOTO
#define PSSP_OPC(name) h_##name:
#define PSSP_FUSED(name) h_##name:
#define PSSP_DISPATCH()                                                        \
    do {                                                                       \
        if (budget == 0) goto budget_stop;                                     \
        --budget;                                                              \
        op = code + ip;                                                        \
        PSSP_PROFILE_HIT();                                                    \
        goto* jump_table[op->handler];                                         \
    } while (0)
#else
#define PSSP_OPC(name) case static_cast<std::uint16_t>(opcode::name):
#define PSSP_FUSED(name) case hop::name:
#define PSSP_DISPATCH()                                                        \
    do {                                                                       \
        if (budget == 0) goto budget_stop;                                     \
        --budget;                                                              \
        op = code + ip;                                                        \
        PSSP_PROFILE_HIT();                                                    \
        goto dispatch_top;                                                     \
    } while (0)
#endif

// Profiling hooks, compiled in only for the kProfile=true instantiation —
// the production (unprofiled) loop carries literally no profiling code.
// `ph` is the handler id of the current dispatch; fused pairs keep it
// across both halves, so every cycle a superinstruction charges is
// attributed to the superinstruction.
#define PSSP_PROFILE_HIT()                                                     \
    do {                                                                       \
        if constexpr (kProfile) {                                              \
            ph = op->handler;                                                  \
            ++prof->hits[ph];                                                  \
        }                                                                      \
    } while (0)
#define PSSP_PROFILE_CYC(amount)                                               \
    do {                                                                       \
        if constexpr (kProfile) prof->cycles[ph] += (amount);                  \
    } while (0)

// Charge one instruction against the batched accumulators. Base handlers
// name their opcode so the table index is a compile-time constant.
#define PSSP_CHARGE(name)                                                      \
    do {                                                                       \
        cyc += ct[opcode::name];                                               \
        ++executed;                                                            \
        PSSP_PROFILE_CYC(ct[opcode::name]);                                    \
    } while (0)

namespace {

// Condition evaluation shared by the jcc handler and the fused
// compare+branch tail; identical to the stepper's inner switch.
[[nodiscard]] inline bool jcc_taken(opcode op, const flags_state& f) noexcept {
    switch (op) {
        case opcode::je: return f.zf;
        case opcode::jne: return !f.zf;
        case opcode::jb: return f.lt_unsigned;
        case opcode::jae: return !f.lt_unsigned;
        case opcode::jl: return f.lt_signed;
        case opcode::jge: return !f.lt_signed;
        case opcode::jnc: return !f.cf;
        default: return true;  // jmp
    }
}

}  // namespace

template <bool kProfile>
run_result machine::run_threaded_impl(std::uint64_t max_steps) {
    if (finished_valid_) return finished_;
    if (!rip_valid_) throw std::logic_error{"machine::run before call_function"};

    const cost_table& ct = refresh_cost_cache();
    const decoded_op* const code = prog_->code.data();

    // Profiling state; dead (and unread) in the kProfile=false
    // instantiation — run() only selects <true> when profile_ is set.
    [[maybe_unused]] exec_profile* const prof = profile_.get();
    [[maybe_unused]] std::uint16_t ph = 0;

    // Batched accounting: steps and cycles accumulate in locals (registers)
    // and are reconciled into steps_/cycles_ exactly at every exit event —
    // and flushed around native calls, which may observe or charge the
    // member counters.
    std::uint64_t executed = 0;  // steps retired this run, not yet in steps_
    std::uint64_t cyc = 0;       // cycles charged this run, not yet in cycles_
    // Unified step countdown to the nearest of fuel_ / max_steps; ~0 when
    // neither binds (2^64 steps cannot retire in a process lifetime). The
    // stepper checks fuel before max_steps, so ties resolve to out_of_fuel
    // at budget_stop below.
    std::uint64_t budget = ~std::uint64_t{0};
    if (fuel_ != 0) budget = fuel_ > steps_ ? fuel_ - steps_ : 0;
    if (max_steps != 0 && max_steps < budget) budget = max_steps;

    std::uint32_t ip = rip_;
    const decoded_op* op = nullptr;
    run_result out;

    // Effective address of a decoded memory operand; mirrors
    // effective_address(mem_operand) field for field.
    const auto ea = [this](const decoded_op& d) noexcept {
        std::uint64_t addr =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(d.disp));
        if (d.mbase != reg::none) addr += get(d.mbase);
        if (d.fs != 0) addr += fs_base_;
        return addr;
    };

#if PSSP_COMPUTED_GOTO
#define PSSP_LBL(name) &&h_##name,
    static const void* const jump_table[hop::count] = {
        PSSP_BASE_OPS(PSSP_LBL) PSSP_FUSED_OPS(PSSP_LBL)};
#undef PSSP_LBL
    PSSP_DISPATCH();
#else
    PSSP_DISPATCH();
dispatch_top:
    switch (op->handler) {
#endif

    PSSP_OPC(nop) {
        PSSP_CHARGE(nop);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(push_r) {
        PSSP_CHARGE(push_r);
        if (!push64(get(op->r1), out)) goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(push_i) {
        PSSP_CHARGE(push_i);
        if (!push64(op->imm, out)) goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(pop_r) {
        PSSP_CHARGE(pop_r);
        std::uint64_t v;
        if (!pop64(v, out)) goto stop_terminal;
        set(op->r1, v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov_rr) {
        PSSP_CHARGE(mov_rr);
        set(op->r1, get(op->r2));
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov_ri) {
        PSSP_CHARGE(mov_ri);
        set(op->r1, op->imm);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov_rm) {
        PSSP_CHARGE(mov_rm);
        std::uint64_t v;
        if (!ld(ea(*op), 8, v, out)) goto stop_terminal;
        set(op->r1, v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov_mr) {
        PSSP_CHARGE(mov_mr);
        if (!st(ea(*op), 8, get(op->r2), out)) goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov_mi) {
        PSSP_CHARGE(mov_mi);
        if (!st(ea(*op), 8, op->imm, out)) goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov32_rm) {
        PSSP_CHARGE(mov32_rm);
        std::uint64_t v;
        if (!ld(ea(*op), 4, v, out)) goto stop_terminal;
        set(op->r1, v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov32_mr) {
        PSSP_CHARGE(mov32_mr);
        if (!st(ea(*op), 4, static_cast<std::uint32_t>(get(op->r2)), out))
            goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(movzx8_rm) {
        PSSP_CHARGE(movzx8_rm);
        std::uint64_t v;
        if (!ld(ea(*op), 1, v, out)) goto stop_terminal;
        set(op->r1, v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(mov8_mr) {
        PSSP_CHARGE(mov8_mr);
        if (!st(ea(*op), 1, static_cast<std::uint8_t>(get(op->r2)), out))
            goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(lea) {
        PSSP_CHARGE(lea);
        set(op->r1, ea(*op));
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(add_rr) {
        PSSP_CHARGE(add_rr);
        const std::uint64_t v = get(op->r1) + get(op->r2);
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(add_ri) {
        PSSP_CHARGE(add_ri);
        const std::uint64_t v = get(op->r1) + op->imm;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(sub_rr) {
        PSSP_CHARGE(sub_rr);
        const std::uint64_t v = get(op->r1) - get(op->r2);
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(sub_ri) {
        PSSP_CHARGE(sub_ri);
        const std::uint64_t v = get(op->r1) - op->imm;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(xor_rr) {
        PSSP_CHARGE(xor_rr);
        const std::uint64_t v = get(op->r1) ^ get(op->r2);
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(xor_ri) {
        PSSP_CHARGE(xor_ri);
        const std::uint64_t v = get(op->r1) ^ op->imm;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(xor_rm) {
        PSSP_CHARGE(xor_rm);
        std::uint64_t mval;
        if (!ld(ea(*op), 8, mval, out)) goto stop_terminal;
        const std::uint64_t v = get(op->r1) ^ mval;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(or_rr) {
        PSSP_CHARGE(or_rr);
        const std::uint64_t v = get(op->r1) | get(op->r2);
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(and_ri) {
        PSSP_CHARGE(and_ri);
        const std::uint64_t v = get(op->r1) & op->imm;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(shl_ri) {
        PSSP_CHARGE(shl_ri);
        set(op->r1, get(op->r1) << (op->imm & 63));
        set_alu_flags(get(op->r1));
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(shr_ri) {
        PSSP_CHARGE(shr_ri);
        set(op->r1, get(op->r1) >> (op->imm & 63));
        set_alu_flags(get(op->r1));
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(imul_rr) {
        PSSP_CHARGE(imul_rr);
        set(op->r1, get(op->r1) * get(op->r2));
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(imul_ri) {
        PSSP_CHARGE(imul_ri);
        set(op->r1, get(op->r1) * op->imm);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(cmp_rr) {
        PSSP_CHARGE(cmp_rr);
        const std::uint64_t a = get(op->r1);
        const std::uint64_t b = get(op->r2);
        flags_.zf = a == b;
        flags_.lt_unsigned = a < b;
        flags_.lt_signed =
            static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(cmp_ri) {
        PSSP_CHARGE(cmp_ri);
        const std::uint64_t a = get(op->r1);
        const std::uint64_t b = op->imm;
        flags_.zf = a == b;
        flags_.lt_unsigned = a < b;
        flags_.lt_signed =
            static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(cmp_rm) {
        PSSP_CHARGE(cmp_rm);
        const std::uint64_t a = get(op->r1);
        std::uint64_t b;
        if (!ld(ea(*op), 8, b, out)) goto stop_terminal;
        flags_.zf = a == b;
        flags_.lt_unsigned = a < b;
        flags_.lt_signed =
            static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(test_rr) {
        PSSP_CHARGE(test_rr);
        flags_.zf = (get(op->r1) & get(op->r2)) == 0;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(je)
    PSSP_OPC(jne)
    PSSP_OPC(jb)
    PSSP_OPC(jae)
    PSSP_OPC(jl)
    PSSP_OPC(jge)
    PSSP_OPC(jnc)
    PSSP_OPC(jmp) {
        cyc += ct[op->op];
        ++executed;
        PSSP_PROFILE_CYC(ct[op->op]);
        if (jcc_taken(op->op, flags_)) {
            if (op->target == no_id) {
                out.status = exec_status::trapped;
                out.trap = trap_kind::invalid_jump;
                out.fault_addr = op->imm;
                goto stop_terminal;
            }
            ip = op->target;
        } else {
            ++ip;
        }
        PSSP_DISPATCH();
    }
    PSSP_OPC(call) {
        PSSP_CHARGE(call);
        if (op->native != nullptr) {
            // Native helper: model the full call/ret round trip so the
            // helper can observe a genuine frame while executing host-side.
            // Natives observe and charge the member counters (and may read
            // current_address()), so reconcile the batch before crossing
            // the edge — this is the only flush inside the loop.
            if (!push64(op->return_addr, out)) goto stop_terminal;
            steps_ += executed;
            executed = 0;
            cycles_ += cyc;
            cyc = 0;
            rip_ = ip;
            if (const native_status ns = op->native(*this); ns.trap != trap_kind::none) {
                out.status = exec_status::trapped;
                out.trap = ns.trap;
                out.fault_addr = ns.fault_addr;
                goto stop_terminal;
            }
            std::uint64_t back;
            if (!pop64(back, out)) goto stop_terminal;
            if (back != op->return_addr) {
                const std::uint32_t index = prog_->index_of(back);
                if (index == no_id) {
                    out.status = exec_status::trapped;
                    out.trap = trap_kind::invalid_jump;
                    out.fault_addr = back;
                    goto stop_terminal;
                }
                ip = index;
            } else {
                ++ip;
            }
            PSSP_DISPATCH();
        }
        if (op->target == no_id) {
            out.status = exec_status::trapped;
            out.trap = trap_kind::invalid_jump;
            out.fault_addr = op->imm;
            goto stop_terminal;
        }
        if (!push64(op->return_addr, out)) goto stop_terminal;
        ip = op->target;
        PSSP_DISPATCH();
    }
    PSSP_OPC(ret) {
        PSSP_CHARGE(ret);
        // The popped target is data from the simulated stack — exactly
        // what an overflow corrupts — so it must resolve dynamically.
        std::uint64_t target;
        if (!pop64(target, out)) goto stop_terminal;
        if (target == return_sentinel) {
            out.status = exec_status::exited;
            out.exit_code = static_cast<std::int64_t>(get(reg::rax));
            goto stop_terminal;
        }
        {
            const std::uint32_t index = prog_->index_of(target);
            if (index == no_id) {
                out.status = exec_status::trapped;
                out.trap = trap_kind::invalid_jump;
                out.fault_addr = target;
                goto stop_terminal;
            }
            ip = index;
        }
        PSSP_DISPATCH();
    }
    PSSP_OPC(leave) {
        PSSP_CHARGE(leave);
        set(reg::rsp, get(reg::rbp));
        std::uint64_t v;
        if (!pop64(v, out)) goto stop_terminal;
        set(reg::rbp, v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(rdrand_r) {
        PSSP_CHARGE(rdrand_r);
        std::uint64_t value = 0;
        flags_.cf = entropy_.rdrand64(value);
        if (flags_.cf) set(op->r1, value);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(rdtsc) {
        PSSP_CHARGE(rdtsc);
        // cycles_ lags by the batched cyc, which already includes this
        // rdtsc's own charge — exactly the stepper's accounting.
        const std::uint64_t tsc = tsc_base_ + cycles_ + cyc;
        set(reg::rax, tsc & 0xffffffffull);
        set(reg::rdx, tsc >> 32);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(movq_xr) {
        PSSP_CHARGE(movq_xr);
        xmm_value x = get_x(op->x1);
        x.lo = get(op->r2);
        x.hi = 0;
        set_x(op->x1, x);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(movq_rx) {
        PSSP_CHARGE(movq_rx);
        set(op->r1, get_x(op->x2).lo);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(movhps_xm) {
        PSSP_CHARGE(movhps_xm);
        xmm_value x = get_x(op->x1);
        if (!ld(ea(*op), 8, x.hi, out)) goto stop_terminal;
        set_x(op->x1, x);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(punpckhqdq_xr) {
        PSSP_CHARGE(punpckhqdq_xr);
        xmm_value x = get_x(op->x1);
        x.hi = get(op->r2);
        set_x(op->x1, x);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(movdqu_mx) {
        PSSP_CHARGE(movdqu_mx);
        const std::uint64_t addr = ea(*op);
        const xmm_value x = get_x(op->x2);
        if (!st(addr, 8, x.lo, out)) goto stop_terminal;
        if (!st(addr + 8, 8, x.hi, out)) goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(movdqu_xm) {
        PSSP_CHARGE(movdqu_xm);
        const std::uint64_t addr = ea(*op);
        std::uint64_t lo, hi;
        if (!ld(addr, 8, lo, out)) goto stop_terminal;
        if (!ld(addr + 8, 8, hi, out)) goto stop_terminal;
        set_x(op->x1, {lo, hi});
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(cmp128_xm) {
        PSSP_CHARGE(cmp128_xm);
        const std::uint64_t addr = ea(*op);
        const xmm_value x = get_x(op->x1);
        std::uint64_t lo, hi;
        if (!ld(addr, 8, lo, out)) goto stop_terminal;
        if (!ld(addr + 8, 8, hi, out)) goto stop_terminal;
        flags_.zf = x.lo == lo && x.hi == hi;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(syscall_i) {
        PSSP_CHARGE(syscall_i);
        const auto number = static_cast<std::uint32_t>(op->imm);
        switch (static_cast<syscall_no>(number)) {
            case syscall_no::sys_exit:
                out.status = exec_status::exited;
                out.exit_code = static_cast<std::int64_t>(get(reg::rdi));
                goto stop_terminal;
            case syscall_no::sys_getpid:
                set(reg::rax, pid_);
                break;
            case syscall_no::sys_write: {
                const std::uint64_t buf = get(reg::rsi);
                const std::uint64_t count = get(reg::rdx);
                const std::uint8_t* p = mem_.try_at(buf, count);
                if (p == nullptr) {
                    out.status = exec_status::trapped;
                    out.trap = trap_kind::segfault;
                    out.fault_addr = buf;
                    goto stop_terminal;
                }
                if (output_.size() < max_output_bytes) {
                    const std::size_t take = std::min<std::size_t>(
                        count, max_output_bytes - output_.size());
                    output_.append(reinterpret_cast<const char*>(p), take);
                }
                set(reg::rax, count);
                break;
            }
            case syscall_no::sys_fork:
                // Serviced by the process layer: pause with rip already
                // advanced so both sides resume after the syscall once
                // complete_syscall() fills in rax. Resumable, so finished_
                // stays unset.
                rip_ = ip + 1;
                out.status = exec_status::syscalled;
                out.syscall_number = number;
                steps_ += executed;
                cycles_ += cyc;
                return out;
        }
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_OPC(trap_abort) {
        PSSP_CHARGE(trap_abort);
        out.status = exec_status::trapped;
        out.trap = trap_kind::stack_smash;
        out.fault_addr = prog_->addrs[ip];
        goto stop_terminal;
    }
    PSSP_OPC(hlt) {
        PSSP_CHARGE(hlt);
        out.status = exec_status::exited;
        out.exit_code = static_cast<std::int64_t>(get(reg::rax));
        goto stop_terminal;
    }
    PSSP_OPC(sim_delay) {
        // Cost-model artifact; the flat table carries only the dbi_tax
        // component, the per-site charge lives in the immediate.
        PSSP_CHARGE(sim_delay);
        cyc += op->imm;
        PSSP_PROFILE_CYC(op->imm);
        ++ip;
        PSSP_DISPATCH();
    }

    // ---- Fused superinstructions (vm/dispatch.hpp) ----
    // Each executes positions ip and ip+1 in one dispatch, charging and
    // retiring the halves in order so fuel boundaries and second-half
    // faults land exactly where the stepper would put them.
    PSSP_FUSED(fuse_cmp_rr_jcc) {
        PSSP_CHARGE(cmp_rr);
        const std::uint64_t a = get(op->r1);
        const std::uint64_t b = get(op->r2);
        flags_.zf = a == b;
        flags_.lt_unsigned = a < b;
        flags_.lt_signed =
            static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
        goto fused_jcc_tail;
    }
    PSSP_FUSED(fuse_cmp_ri_jcc) {
        PSSP_CHARGE(cmp_ri);
        const std::uint64_t a = get(op->r1);
        const std::uint64_t b = op->imm;
        flags_.zf = a == b;
        flags_.lt_unsigned = a < b;
        flags_.lt_signed =
            static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
        goto fused_jcc_tail;
    }
    PSSP_FUSED(fuse_test_rr_jcc) {
        PSSP_CHARGE(test_rr);
        flags_.zf = (get(op->r1) & get(op->r2)) == 0;
        goto fused_jcc_tail;
    }
    PSSP_FUSED(fuse_xor_rm_jcc) {
        // The SSP epilogue's canary check: xor rcx, fs:0x28 ; jne fail.
        PSSP_CHARGE(xor_rm);
        std::uint64_t mval;
        if (!ld(ea(*op), 8, mval, out)) goto stop_terminal;
        const std::uint64_t v = get(op->r1) ^ mval;
        set(op->r1, v);
        set_alu_flags(v);
        goto fused_jcc_tail;
    }
    PSSP_FUSED(fuse_push_push) {
        PSSP_CHARGE(push_r);
        if (!push64(get(op->r1), out)) goto stop_terminal;
        ++ip;
        if (budget == 0) goto budget_stop;
        --budget;
        op = code + ip;
        PSSP_CHARGE(push_r);
        if (!push64(get(op->r1), out)) goto stop_terminal;
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_FUSED(fuse_push_mov_rr) {
        // Frame setup: push rbp ; mov rbp, rsp.
        PSSP_CHARGE(push_r);
        if (!push64(get(op->r1), out)) goto stop_terminal;
        ++ip;
        if (budget == 0) goto budget_stop;
        --budget;
        op = code + ip;
        PSSP_CHARGE(mov_rr);
        set(op->r1, get(op->r2));
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_FUSED(fuse_mov_rm_add_rr) {
        PSSP_CHARGE(mov_rm);
        std::uint64_t v;
        if (!ld(ea(*op), 8, v, out)) goto stop_terminal;
        set(op->r1, v);
        ++ip;
        if (budget == 0) goto budget_stop;
        --budget;
        op = code + ip;
        PSSP_CHARGE(add_rr);
        const std::uint64_t sum = get(op->r1) + get(op->r2);
        set(op->r1, sum);
        set_alu_flags(sum);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_FUSED(fuse_sub_ri_cmp_ri) {
        PSSP_CHARGE(sub_ri);
        const std::uint64_t v = get(op->r1) - op->imm;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        if (budget == 0) goto budget_stop;
        --budget;
        op = code + ip;
        PSSP_CHARGE(cmp_ri);
        const std::uint64_t a = get(op->r1);
        const std::uint64_t b = op->imm;
        flags_.zf = a == b;
        flags_.lt_unsigned = a < b;
        flags_.lt_signed =
            static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_FUSED(fuse_mov_mr_xor_ri) {
        PSSP_CHARGE(mov_mr);
        if (!st(ea(*op), 8, get(op->r2), out)) goto stop_terminal;
        ++ip;
        if (budget == 0) goto budget_stop;
        --budget;
        op = code + ip;
        PSSP_CHARGE(xor_ri);
        const std::uint64_t v = get(op->r1) ^ op->imm;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        PSSP_DISPATCH();
    }
    PSSP_FUSED(fuse_add_ri_ret) {
        PSSP_CHARGE(add_ri);
        const std::uint64_t v = get(op->r1) + op->imm;
        set(op->r1, v);
        set_alu_flags(v);
        ++ip;
        if (budget == 0) goto budget_stop;
        --budget;
        op = code + ip;
        PSSP_CHARGE(ret);
        std::uint64_t target;
        if (!pop64(target, out)) goto stop_terminal;
        if (target == return_sentinel) {
            out.status = exec_status::exited;
            out.exit_code = static_cast<std::int64_t>(get(reg::rax));
            goto stop_terminal;
        }
        {
            const std::uint32_t index = prog_->index_of(target);
            if (index == no_id) {
                out.status = exec_status::trapped;
                out.trap = trap_kind::invalid_jump;
                out.fault_addr = target;
                goto stop_terminal;
            }
            ip = index;
        }
        PSSP_DISPATCH();
    }
    PSSP_FUSED(sentinel) {
        // rip walked past the last instruction: the legacy loop's bounds
        // check, reproduced as a trapping op. Charges nothing — the
        // stepper never executed an instruction here either.
        rip_ = ip;
        out.status = exec_status::trapped;
        out.trap = trap_kind::invalid_jump;
        out.fault_addr = current_address();
        goto stop_terminal;
    }

#if !PSSP_COMPUTED_GOTO
    }
    // Unreachable: finalize() only emits handler ids covered above.
    out.status = exec_status::trapped;
    out.trap = trap_kind::invalid_jump;
    goto stop_terminal;
#endif

fused_jcc_tail:
    // Second half of the flags-producing fused pairs: the conditional
    // branch at ip+1.
    ++ip;
    if (budget == 0) goto budget_stop;
    --budget;
    op = code + ip;
    cyc += ct[op->op];
    ++executed;
    PSSP_PROFILE_CYC(ct[op->op]);
    if (jcc_taken(op->op, flags_)) {
        if (op->target == no_id) {
            out.status = exec_status::trapped;
            out.trap = trap_kind::invalid_jump;
            out.fault_addr = op->imm;
            goto stop_terminal;
        }
        ip = op->target;
    } else {
        ++ip;
    }
    PSSP_DISPATCH();

budget_stop:
    // The step countdown ran dry before the next (sub-)instruction. The
    // stepper checks fuel before max_steps, so fuel wins ties; a
    // max_steps pause is resumable and leaves finished_ unset.
    rip_ = ip;
    steps_ += executed;
    cycles_ += cyc;
    if (fuel_ != 0 && steps_ >= fuel_) {
        out.status = exec_status::out_of_fuel;
        finished_ = out;
        finished_valid_ = true;
        return out;
    }
    out.status = exec_status::running;
    return out;

stop_terminal:
    // Terminal event (exit, trap, fuel handled above): reconcile the
    // batched accounting, park rip on the event instruction, latch the
    // sticky result.
    rip_ = ip;
    steps_ += executed;
    cycles_ += cyc;
    finished_ = out;
    finished_valid_ = true;
    return out;
}

#undef PSSP_OPC
#undef PSSP_FUSED
#undef PSSP_DISPATCH
#undef PSSP_CHARGE
#undef PSSP_PROFILE_HIT
#undef PSSP_PROFILE_CYC
#undef PSSP_COMPUTED_GOTO

std::uint64_t machine::current_address() const noexcept {
    if (rip_ < prog_->addrs.size()) return prog_->addrs[rip_];
    return 0;
}

void machine::copy_scalars_from(const machine& src) {
    assert(prog_ == src.prog_);
    gpr_ = src.gpr_;
    xmm_ = src.xmm_;
    flags_ = src.flags_;
    fs_base_ = src.fs_base_;
    rip_ = src.rip_;
    rip_valid_ = src.rip_valid_;
    costs_ = src.costs_;
    // The flattened cost table is immutable behind a shared pointer, so
    // snapshot restore and the per-request fork fast path move 16 bytes
    // here instead of re-copying the whole per-opcode array.
    cost_cache_ = src.cost_cache_;
    cost_cache_key_ = src.cost_cache_key_;
    dispatch_ = src.dispatch_;
    // Shared, not cloned: all copies of a profiled master feed one table.
    profile_ = src.profile_;
    cycles_ = src.cycles_;
    steps_ = src.steps_;
    fuel_ = src.fuel_;
    tsc_base_ = src.tsc_base_;
    entropy_ = src.entropy_;
    pid_ = src.pid_;
    // Skip the copy when already equal: on the per-request fork fast path
    // both sides' output is (almost) always empty, and the fork tail
    // clears the child's output right after anyway.
    if (output_ != src.output_) output_ = src.output_;
    finished_ = src.finished_;
    finished_valid_ = src.finished_valid_;
}

void machine::restore_from(const machine& snap) {
    if (prog_ != snap.prog_)
        throw std::invalid_argument{"machine::restore_from: different program"};
    copy_scalars_from(snap);
    mem_.restore_from(snap.mem_);
}

void machine::sync_from(machine& src) {
    if (prog_ != src.prog_)
        throw std::invalid_argument{"machine::sync_from: different program"};
    copy_scalars_from(src);
    mem_.sync_from(src.mem_);
}

}  // namespace pssp::vm
