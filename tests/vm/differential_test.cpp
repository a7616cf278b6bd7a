// Differential stepper oracle: randomized programs (seeded splitmix64)
// executed instruction-by-instruction via the public step() — the legacy
// switch engine — against one batched threaded run(), asserting identical
// registers, flags, memory digest, cycles, steps, and trap/fault state at
// every event boundary. This is the broad-spectrum check behind the
// dispatch-mode contract: whatever instruction soup the generator cooks
// up (including wild loads, runaway loops and clobbered return
// addresses), both engines must tell exactly the same story.
//
// The native-call edge is pinned the same way: each string native running
// off the end of a region, overlapping and empty copies, and
// __stack_chk_fail from a frame end in the same trap, fault address,
// steps, cycles, registers, bytes and dirty pages under both engines.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "binfmt/image.hpp"
#include "binfmt/stdlib.hpp"
#include "crypto/prng.hpp"
#include "vm/machine.hpp"
#include "vm/random_program.hpp"

namespace pssp {
namespace {

using namespace vm::isa;
using vm::machine;
using vm::reg;

// FNV-1a over the three memory regions — cheap, and any divergence in any
// byte of simulated memory changes it.
std::uint64_t memory_digest(const machine& m) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::span<const std::uint8_t> bytes) {
        for (const std::uint8_t b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    };
    mix(m.mem().stack_bytes());
    mix(m.mem().globals_bytes());
    mix(m.mem().tls_bytes());
    return h;
}

struct boundary_state {
    vm::run_result result;
    std::uint64_t cycles = 0;
    std::uint64_t steps = 0;
    std::uint64_t address = 0;
    std::uint64_t digest = 0;
    std::array<std::uint64_t, vm::gpr_count> gpr{};
    vm::flags_state flags{};
    std::string output;
};

boundary_state capture(machine& m, const vm::run_result& r) {
    boundary_state s;
    s.result = r;
    s.cycles = m.cycles();
    s.steps = m.steps();
    s.address = m.current_address();
    s.digest = memory_digest(m);
    for (std::size_t i = 0; i < vm::gpr_count; ++i)
        s.gpr[i] = m.get(static_cast<reg>(i));
    s.flags = m.flags();
    s.output = m.output();
    return s;
}

void expect_same(const boundary_state& a, const boundary_state& b,
                 std::uint64_t seed, const char* where) {
    EXPECT_EQ(a.result.status, b.result.status) << where << " seed " << seed;
    EXPECT_EQ(a.result.trap, b.result.trap) << where << " seed " << seed;
    EXPECT_EQ(a.result.exit_code, b.result.exit_code) << where << " seed " << seed;
    EXPECT_EQ(a.result.syscall_number, b.result.syscall_number)
        << where << " seed " << seed;
    EXPECT_EQ(a.result.fault_addr, b.result.fault_addr) << where << " seed " << seed;
    EXPECT_EQ(a.cycles, b.cycles) << where << " seed " << seed;
    EXPECT_EQ(a.steps, b.steps) << where << " seed " << seed;
    EXPECT_EQ(a.address, b.address) << where << " seed " << seed;
    EXPECT_EQ(a.digest, b.digest) << where << " seed " << seed;
    EXPECT_EQ(a.gpr, b.gpr) << where << " seed " << seed;
    EXPECT_EQ(a.flags.zf, b.flags.zf) << where << " seed " << seed;
    EXPECT_EQ(a.flags.cf, b.flags.cf) << where << " seed " << seed;
    EXPECT_EQ(a.flags.lt_signed, b.flags.lt_signed) << where << " seed " << seed;
    EXPECT_EQ(a.flags.lt_unsigned, b.flags.lt_unsigned)
        << where << " seed " << seed;
    EXPECT_EQ(a.output, b.output) << where << " seed " << seed;
}

// Drives one generated program through both engines. The stepper side
// advances one instruction per step() call; every non-`running` return is
// an event boundary, which must match the threaded side's next event.
void run_differential(std::uint64_t seed) {
    auto img = testing::random_image(seed, /*body_len=*/60);
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    const auto prog = binary.make_program();

    constexpr std::uint64_t fuel = 3000;
    machine threaded{prog, vm::memory::layout{}, /*entropy_seed=*/seed};
    threaded.set_dispatch(vm::dispatch_mode::threaded);
    machine stepper{prog, vm::memory::layout{}, /*entropy_seed=*/seed};
    stepper.set_dispatch(vm::dispatch_mode::switch_loop);
    for (machine* m : {&threaded, &stepper}) {
        m->set(reg::rdi, 5);
        m->set(reg::rsi, 9);
        m->call_function(binary.symbols.at("f"));
        m->set_fuel(fuel);
    }

    // Up to a handful of events (syscall pauses resume with the same rax).
    for (int event = 0; event < 8; ++event) {
        const auto tr = threaded.run();
        vm::run_result sr;
        do {
            sr = stepper.step();
        } while (sr.status == vm::exec_status::running &&
                 stepper.steps() < fuel + 1);
        expect_same(capture(threaded, tr), capture(stepper, sr), seed, "event");
        if (tr.status != vm::exec_status::syscalled) return;
        threaded.complete_syscall(7);
        stepper.complete_syscall(7);
    }
}

TEST(differential, randomized_programs_agree_at_every_event_boundary) {
    // 40 seeds x ~60-instruction bodies: every generated program must
    // produce identical observable state under both engines at every
    // event. On failure the seed is printed for replay.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) run_differential(seed);
}

TEST(differential, deep_spinner_agrees_including_out_of_fuel_timing) {
    // A long-running loop: the threaded engine's batched fuel accounting
    // must stop on exactly the same step as the per-instruction check.
    binfmt::image img;
    auto& f = img.add_function("f");
    const auto loop = f.new_label();
    f.emit(mov_ri(reg::rdi, 1'000'000));
    f.place(loop);
    f.emit({sub_ri(reg::rdi, 1), cmp_ri(reg::rdi, 0), jne(loop), ret()});
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    const auto prog = binary.make_program();

    for (const std::uint64_t fuel : {1000ull, 1001ull, 1002ull, 1003ull}) {
        machine threaded{prog, vm::memory::layout{}, 1};
        threaded.set_dispatch(vm::dispatch_mode::threaded);
        machine stepper{prog, vm::memory::layout{}, 1};
        stepper.set_dispatch(vm::dispatch_mode::switch_loop);
        for (machine* m : {&threaded, &stepper}) {
            m->call_function(binary.symbols.at("f"));
            m->set_fuel(fuel);
        }
        const auto tr = threaded.run();
        const auto sr = stepper.run();
        ASSERT_EQ(tr.status, vm::exec_status::out_of_fuel) << "fuel " << fuel;
        expect_same(capture(threaded, tr), capture(stepper, sr), fuel, "fuel");
    }
}

TEST(differential, bounded_run_pauses_match_across_engines) {
    // run(max_steps) pauses are resumable mid-fused-pair; state at every
    // pause must match a stepper driven the same number of steps.
    binfmt::image img;
    auto& f = img.add_function("f");
    const auto out = f.new_label();
    f.emit({push_r(reg::rbp), mov_rr(reg::rbp, reg::rsp), sub_ri(reg::rsp, 32),
            mov_ri(reg::rax, 0), mov_mr(mem(reg::rbp, -8), reg::rax),
            mov_rm(reg::rcx, mem(reg::rbp, -8)), add_rr(reg::rax, reg::rcx),
            cmp_ri(reg::rax, 0), je(out)});
    f.place(out);
    f.emit({leave(), ret()});
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    const auto prog = binary.make_program();

    machine threaded{prog, vm::memory::layout{}, 1};
    threaded.set_dispatch(vm::dispatch_mode::threaded);
    machine stepper{prog, vm::memory::layout{}, 1};
    stepper.set_dispatch(vm::dispatch_mode::switch_loop);
    for (machine* m : {&threaded, &stepper}) {
        m->call_function(binary.symbols.at("f"));
        m->set_fuel(1000);
    }
    for (int pause = 0; pause < 16; ++pause) {
        const auto tr = threaded.run(1);
        const auto sr = stepper.step();
        expect_same(capture(threaded, tr), capture(stepper, sr), pause, "pause");
        if (tr.status != vm::exec_status::running) break;
    }
}

// ---- The native-call edge ---------------------------------------------------
// Natives report a crash by returning it; a throwing helper cannot bind.
static_assert(std::is_nothrow_invocable_v<vm::native_fn, vm::machine&>);

constexpr std::uint64_t kGlobals = vm::default_globals_base;
constexpr std::uint64_t kGlobalsEnd = vm::default_globals_base + vm::default_globals_size;
constexpr std::uint64_t kStackTop = vm::default_stack_top;
constexpr std::uint64_t kStackBuf = vm::default_stack_top - 1024;  // below the frame
constexpr std::uint64_t kRaxMarker = 0x5eed5eed5eed5eedull;

// 16 bytes of guest memory, spelled as a string literal.
std::string bytes16(const char (&s)[17]) { return {s, 16}; }

std::string letters(std::size_t n) {
    std::string v(n, '\0');
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<char>('a' + i % 26);
    return v;
}

// One call of a dynamic-glibc native straight from f's entry, with rdi,
// rsi and rdx as its arguments and `fill` written at `fill_at` beforehand.
// Expected values were recorded from the byte-at-a-time natives that threw
// at the first unmapped byte.
struct native_case {
    const char* name;
    const char* native;
    std::uint64_t rdi, rsi, rdx;
    std::uint64_t fill_at;
    std::string fill;
    std::uint64_t window;  // 16 bytes read back from here after the run
    // expected
    vm::exec_status status;
    vm::trap_kind trap;
    std::uint64_t fault_addr;
    std::uint64_t steps, cycles, rax;
    std::size_t dirty_pages;  // on each channel, counted from a clean image
    std::string bytes;        // the 16-byte window
};

std::vector<native_case> native_cases() {
    using vm::exec_status;
    using vm::trap_kind;
    const std::string term = letters(6) + '\0';
    constexpr auto trapped = exec_status::trapped;
    constexpr auto exited = exec_status::exited;
    constexpr auto segv = trap_kind::segfault;
    constexpr auto none = trap_kind::none;
    // A faulting native charges nothing and leaves rax alone: 1 step and the
    // call's 2 cycles; the one dirty page is the pushed return address.
    return {
        {"strcpy_src_off_globals", "strcpy", kStackBuf, kGlobalsEnd - 8, 0,
         kGlobalsEnd - 8, letters(8), kStackBuf,
         trapped, segv, kGlobalsEnd, 1, 2, kRaxMarker, 1,
         bytes16("abcdefgh\0\0\0\0\0\0\0\0")},
        {"strcpy_dst_off_stack_top", "strcpy", kStackTop - 8, kGlobals, 0,
         kGlobals, letters(32), kStackTop - 16,
         trapped, segv, kStackTop, 1, 2, kRaxMarker, 1,
         bytes16("\0\0\0\0\0\0\0\0abcdefgh")},
        {"strcpy_both_off_loads_first", "strcpy", kStackTop - 8, kGlobalsEnd - 8, 0,
         kGlobalsEnd - 8, letters(8), kStackTop - 16,
         trapped, segv, kGlobalsEnd, 1, 2, kRaxMarker, 1,
         bytes16("\0\0\0\0\0\0\0\0abcdefgh")},
        // dst = src + 2: the copy re-reads its own "ab" and never reaches
        // the terminator, smearing across a page boundary to the region end.
        {"strcpy_overlap_smears_to_region_end", "strcpy", kGlobalsEnd - 4160,
         kGlobalsEnd - 4162, 0, kGlobalsEnd - 4162, term, kGlobalsEnd - 16,
         trapped, segv, kGlobalsEnd, 1, 2, kRaxMarker, 3,
         bytes16("abababababababab")},
        {"strcpy_copies_through_terminator", "strcpy", kStackBuf, kGlobals, 0,
         kGlobals, term, kStackBuf,
         exited, none, 0, 2, 22, kStackBuf, 1,
         bytes16("abcdef\0\0\0\0\0\0\0\0\0\0")},
        {"memcpy_src_off_globals", "memcpy", kStackBuf, kGlobalsEnd - 8, 16,
         kGlobalsEnd - 8, letters(8), kStackBuf,
         trapped, segv, kGlobalsEnd, 1, 2, kRaxMarker, 1,
         bytes16("abcdefgh\0\0\0\0\0\0\0\0")},
        {"memcpy_dst_off_stack_top", "memcpy", kStackTop - 8, kGlobals, 16,
         kGlobals, letters(16), kStackTop - 16,
         trapped, segv, kStackTop, 1, 2, kRaxMarker, 1,
         bytes16("\0\0\0\0\0\0\0\0abcdefgh")},
        {"memcpy_both_off_loads_first", "memcpy", kStackTop - 8, kGlobalsEnd - 8, 16,
         kGlobalsEnd - 8, letters(8), kStackTop - 16,
         trapped, segv, kGlobalsEnd, 1, 2, kRaxMarker, 1,
         bytes16("\0\0\0\0\0\0\0\0abcdefgh")},
        {"memcpy_overlap_smears_forward", "memcpy", kGlobals + 1, kGlobals, 9,
         kGlobals, letters(12), kGlobals,
         exited, none, 0, 2, 26, kGlobals + 1, 2,
         bytes16("aaaaaaaaaakl\0\0\0\0")},
        // No byte is touched, so unmapped pointers are fine; the 4-cycle
        // charge sits between the call's and the ret's 2 each.
        {"memcpy_zero_length", "memcpy", 0, 0, 0, kGlobals, "", kGlobals,
         exited, none, 0, 2, 8, 0, 1,
         bytes16("\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0")},
        // Only the two pages the 8 bytes straddle get dirty, not the
        // rest of the region the run could have reached.
        {"memset_marks_only_written_pages", "memset", kGlobals + 4090, 'Z', 8, kGlobals,
         "", kGlobals + 4088,
         exited, none, 0, 2, 16, kGlobals + 4090, 3,
         bytes16("\0\0ZZZZZZZZ\0\0\0\0\0\0")},
        {"memset_off_globals", "memset", kGlobalsEnd - 8, 'Z', 16, kGlobals, "",
         kGlobalsEnd - 16,
         trapped, segv, kGlobalsEnd, 1, 2, kRaxMarker, 2,
         bytes16("\0\0\0\0\0\0\0\0ZZZZZZZZ")},
        {"memset_off_stack_top", "memset", kStackTop - 8, 'Z', 16, kGlobals, "",
         kStackTop - 16,
         trapped, segv, kStackTop, 1, 2, kRaxMarker, 1,
         bytes16("\0\0\0\0\0\0\0\0ZZZZZZZZ")},
        {"strlen_off_globals", "strlen", kGlobalsEnd - 8, 0, 0, kGlobalsEnd - 8,
         letters(8), kGlobalsEnd - 16,
         trapped, segv, kGlobalsEnd, 1, 2, kRaxMarker, 1,
         bytes16("\0\0\0\0\0\0\0\0abcdefgh")},
        {"strlen_off_stack_top", "strlen", kStackTop - 8, 0, 0, kStackTop - 8,
         letters(8), kStackTop - 16,
         trapped, segv, kStackTop, 1, 2, kRaxMarker, 1,
         bytes16("\0\0\0\0\0\0\0\0abcdefgh")},
    };
}

void run_native_case(const native_case& c, vm::dispatch_mode mode) {
    binfmt::image img;
    img.add_function("f").emit({call_sym(img.sym(c.native)), ret()});
    binfmt::add_standard_library(img, binfmt::link_mode::dynamic_glibc);
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    machine m{binary.make_program(), vm::memory::layout{}, 1};
    m.set_dispatch(mode);
    for (std::size_t i = 0; i < c.fill.size(); ++i)
        m.mem().store8(c.fill_at + i, static_cast<std::uint8_t>(c.fill[i]));
    m.mem().mark_all_clean();
    m.set(reg::rdi, c.rdi);
    m.set(reg::rsi, c.rsi);
    m.set(reg::rdx, c.rdx);
    m.set(reg::rax, kRaxMarker);
    m.call_function(binary.symbols.at("f"));
    const auto r = m.run();

    const std::string where = std::string{c.name} + " under " + vm::to_string(mode);
    EXPECT_EQ(r.status, c.status) << where;
    EXPECT_EQ(r.trap, c.trap) << where;
    EXPECT_EQ(r.fault_addr, c.fault_addr) << where;
    EXPECT_EQ(m.steps(), c.steps) << where;
    EXPECT_EQ(m.cycles(), c.cycles) << where;
    EXPECT_EQ(m.get(reg::rax), c.rax) << where;
    EXPECT_EQ(m.mem().dirty_pages(vm::dirty_channel::restore), c.dirty_pages) << where;
    EXPECT_EQ(m.mem().dirty_pages(vm::dirty_channel::fork), c.dirty_pages) << where;
    std::string window(16, '\0');
    for (std::size_t i = 0; i < window.size(); ++i)
        window[i] = static_cast<char>(m.mem().load8(c.window + i));
    EXPECT_EQ(window, c.bytes) << where;
}

TEST(native_edge, string_natives_fault_at_the_first_unmapped_byte_in_both_engines) {
    for (const auto& c : native_cases())
        for (const auto mode : {vm::dispatch_mode::threaded, vm::dispatch_mode::switch_loop})
            run_native_case(c, mode);
}

TEST(native_edge, stack_chk_fail_traps_at_its_call_site_in_both_engines) {
    binfmt::image img;
    img.add_function("f").emit({push_r(reg::rbp), mov_rr(reg::rbp, reg::rsp),
                                sub_ri(reg::rsp, 32),
                                call_sym(img.sym(binfmt::sym_stack_chk_fail)), leave(),
                                ret()});
    binfmt::add_standard_library(img, binfmt::link_mode::dynamic_glibc);
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    const std::uint64_t call_site = binary.symbols.at("f") + 11;  // push, mov, sub
    for (const auto mode : {vm::dispatch_mode::threaded, vm::dispatch_mode::switch_loop}) {
        machine m{binary.make_program(), vm::memory::layout{}, 1};
        m.set_dispatch(mode);
        m.set(reg::rax, kRaxMarker);
        m.call_function(binary.symbols.at("f"));
        const auto r = m.run();
        const std::string where = vm::to_string(mode);
        EXPECT_EQ(r.status, vm::exec_status::trapped) << where;
        EXPECT_EQ(r.trap, vm::trap_kind::stack_smash) << where;
        EXPECT_EQ(r.fault_addr, call_site) << where;
        EXPECT_EQ(m.current_address(), call_site) << where;
        EXPECT_EQ(m.steps(), 4u) << where;
        EXPECT_EQ(m.cycles(), 5u) << where;
        EXPECT_EQ(m.get(reg::rax), kRaxMarker) << where;
    }
}

}  // namespace
}  // namespace pssp
