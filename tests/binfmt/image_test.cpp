// Binary image & linker: symbol resolution, label binding, layout, PLT
// native slots, data objects, and the editing API the rewriter depends on.

#include <gtest/gtest.h>

#include "binfmt/image.hpp"
#include "binfmt/stdlib.hpp"
#include "vm/machine.hpp"

namespace pssp {
namespace {

using namespace vm::isa;
using vm::reg;

TEST(image, functions_get_sequential_addresses) {
    binfmt::image img;
    auto& a = img.add_function("a");
    a.emit({nop(), nop(), ret()});  // 3 bytes
    auto& b = img.add_function("b");
    b.emit(ret());
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    EXPECT_EQ(binary.symbols.at("a"), binfmt::default_text_base);
    EXPECT_EQ(binary.symbols.at("b"), binfmt::default_text_base + 3);
    EXPECT_EQ(binary.text_bytes(), 4u);
}

TEST(image, libc_functions_are_placed_after_app_code) {
    binfmt::image img;
    auto& lib = img.add_function("libfn", /*from_libc=*/true);
    lib.emit(ret());
    auto& app = img.add_function("appfn");
    app.emit(ret());
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    EXPECT_LT(binary.symbols.at("appfn"), binary.symbols.at("libfn"));
}

TEST(image, duplicate_function_is_rejected) {
    binfmt::image img;
    img.add_function("twice");
    EXPECT_THROW(img.add_function("twice"), std::invalid_argument);
}

TEST(image, unresolved_symbol_fails_link) {
    binfmt::image img;
    auto& f = img.add_function("f");
    f.emit({call_sym(img.sym("missing")), ret()});
    EXPECT_THROW((void)img.link(binfmt::link_mode::dynamic_glibc),
                 std::runtime_error);
}

TEST(image, labels_resolve_to_addresses) {
    binfmt::image img;
    auto& f = img.add_function("f");
    const auto target = f.new_label();
    f.emit(jmp(target));  // 5 bytes
    f.emit(nop());        // 1 byte — skipped
    f.place(target);
    f.emit(ret());
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    const auto& lf = *binary.find("f");
    EXPECT_EQ(lf.insns[0].imm, binfmt::default_text_base + 6);
}

TEST(image, unbound_label_fails_link) {
    binfmt::image img;
    auto& f = img.add_function("f");
    f.emit({jmp(f.new_label()), ret()});
    EXPECT_THROW((void)img.link(binfmt::link_mode::dynamic_glibc),
                 std::runtime_error);
}

// A native helper is a plain function, so it records its calls through the
// machine it runs on: a counter in the first globals byte.
vm::native_status counting_helper(vm::machine& m) noexcept {
    ++*m.mem().try_at_mut(vm::default_globals_base, 1);
    m.set(reg::rax, 7);
    return {};
}

TEST(image, native_imports_get_plt_slots) {
    binfmt::image img;
    auto& f = img.add_function("f");
    f.emit({call_sym(img.sym("helper")), ret()});
    img.add_native_import("helper", counting_helper);
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    EXPECT_EQ(binary.plt_bytes, binfmt::plt_entry_bytes);
    EXPECT_TRUE(binary.natives.contains(binary.symbols.at("helper")));

    vm::machine m{binary.make_program(), vm::memory::layout{}, 1};
    m.call_function(binary.symbols.at("f"));
    EXPECT_EQ(m.run().exit_code, 7);
    EXPECT_EQ(m.mem().load8(vm::default_globals_base), 1u);
}

TEST(image, image_function_overrides_native_import) {
    binfmt::image img;
    auto& strong = img.add_function("helper");
    strong.emit({mov_ri(reg::rax, 1), ret()});
    img.add_native_import("helper", [](vm::machine& m) noexcept -> vm::native_status {
        m.set(reg::rax, 2);
        return {};
    });
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    EXPECT_EQ(binary.symbols.at("helper"), binfmt::default_text_base);
    EXPECT_EQ(binary.plt_bytes, 0u);
}

TEST(image, data_objects_are_laid_out_and_initialized) {
    binfmt::image img;
    img.add_function("f").emit(ret());
    img.add_data({"first", 24, {1, 2, 3}});
    img.add_data({"second", 8, {9}});
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    const auto first = binary.data_symbols.at("first");
    const auto second = binary.data_symbols.at("second");
    EXPECT_EQ(first, vm::default_globals_base);
    EXPECT_EQ(second % 16, 0u);  // 16-byte alignment
    EXPECT_GT(second, first);
    EXPECT_EQ(binary.data_init[0], 1);
    EXPECT_EQ(binary.data_init[second - binary.data_base], 9);
}

TEST(image, oversized_data_init_is_rejected) {
    binfmt::image img;
    EXPECT_THROW(img.add_data({"x", 2, {1, 2, 3}}), std::invalid_argument);
}

TEST(image, mov_ri_relocates_data_symbols) {
    binfmt::image img;
    img.add_data({"blob", 8, {0x2a}});
    auto& f = img.add_function("f");
    auto load_addr = mov_ri(reg::rcx, 0);
    load_addr.sym = img.sym("blob");
    f.emit({load_addr, movzx8_rm(reg::rax, mem(reg::rcx, 0)), ret()});
    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    vm::machine m{binary.make_program(), vm::memory::layout{}, 1};
    m.mem().write_bytes(binary.data_symbols.at("blob"),
                        std::vector<std::uint8_t>{0x2a});
    m.call_function(binary.symbols.at("f"));
    EXPECT_EQ(m.run().exit_code, 0x2a);
}

// ---- linked_binary editing (the rewriter's substrate) ----

TEST(linked_binary, replace_range_enforces_equal_length) {
    binfmt::image img;
    auto& f = img.add_function("f");
    f.emit({nop(), nop(), ret()});
    auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    auto& lf = *binary.find("f");
    // nop (1 byte) -> jmp (5 bytes) must throw.
    EXPECT_THROW(binary.replace_range(lf, 0, 1, {jmp(0)}), std::runtime_error);
    // nop+nop (2 bytes) -> trap_abort (2 bytes) is fine.
    binary.replace_range(lf, 0, 2, {trap_abort()});
    EXPECT_EQ(lf.insns.size(), 2u);
    EXPECT_EQ(lf.addrs[1], binfmt::default_text_base + 2);
}

TEST(linked_binary, replace_range_rejects_out_of_bounds) {
    binfmt::image img;
    img.add_function("f").emit(ret());
    auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    EXPECT_THROW(binary.replace_range(*binary.find("f"), 0, 5, {}),
                 std::out_of_range);
}

TEST(linked_binary, append_function_lands_in_fresh_section) {
    binfmt::image img;
    img.add_function("f").emit(ret());
    auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    const auto old_end = binary.text_end;

    binfmt::bin_function extra{"extra", true};
    extra.emit({mov_ri(reg::rax, 5), ret()});
    const auto entry = binary.append_function("extra", std::move(extra));
    EXPECT_EQ(entry % 0x1000, 0u);  // page-aligned section start
    EXPECT_GE(entry, old_end);
    EXPECT_EQ(binary.symbols.at("extra"), entry);

    vm::machine m{binary.make_program(), vm::memory::layout{}, 1};
    m.call_function(entry);
    EXPECT_EQ(m.run().exit_code, 5);
}

TEST(linked_binary, bind_native_interposes_on_existing_symbol) {
    binfmt::image img;
    auto& helper = img.add_function("helper");
    helper.emit({mov_ri(reg::rax, 1), ret()});
    auto& f = img.add_function("f");
    f.emit({call_sym(img.sym("helper")), ret()});
    auto binary = img.link(binfmt::link_mode::dynamic_glibc);

    // LD_PRELOAD analog: the native now shadows the VM implementation.
    binary.bind_native("helper", [](vm::machine& m) noexcept -> vm::native_status {
        m.set(reg::rax, 99);
        return {};
    });
    vm::machine m{binary.make_program(), vm::memory::layout{}, 1};
    m.call_function(binary.symbols.at("f"));
    EXPECT_EQ(m.run().exit_code, 99);
}

// ---- the libc analog itself ----

class stdlib_test : public ::testing::TestWithParam<binfmt::link_mode> {};

INSTANTIATE_TEST_SUITE_P(both_modes, stdlib_test,
                         ::testing::Values(binfmt::link_mode::dynamic_glibc,
                                           binfmt::link_mode::static_glibc),
                         [](const auto& info) { return to_string(info.param); });

TEST_P(stdlib_test, strcpy_strlen_memcpy_memset_work) {
    binfmt::image img;
    img.add_data({"src", 32, {'c', 'a', 'n', 'a', 'r', 'y', 0}});
    img.add_data({"dst", 32, {}});
    auto& f = img.add_function("f");
    auto src = mov_ri(reg::rsi, 0);
    src.sym = img.sym("src");
    auto dst = mov_ri(reg::rdi, 0);
    dst.sym = img.sym("dst");
    auto dst2 = dst;
    // strcpy(dst, src); return strlen(dst);
    f.emit({dst, src, call_sym(img.sym(binfmt::sym_strcpy)), dst2,
            call_sym(img.sym(binfmt::sym_strlen)), ret()});
    binfmt::add_standard_library(img, GetParam());
    const auto binary = img.link(GetParam());

    vm::machine m{binary.make_program(), vm::memory::layout{}, 1};
    m.mem().write_bytes(binary.data_symbols.at("src"),
                        std::vector<std::uint8_t>{'c', 'a', 'n', 'a', 'r', 'y', 0});
    m.call_function(binary.symbols.at("f"));
    m.set_fuel(100'000);
    EXPECT_EQ(m.run().exit_code, 6);  // strlen("canary")
    std::array<std::uint8_t, 7> copied{};
    m.mem().read_bytes(binary.data_symbols.at("dst"), copied);
    EXPECT_EQ(copied[0], 'c');
    EXPECT_EQ(copied[5], 'y');
    EXPECT_EQ(copied[6], 0);
}

TEST_P(stdlib_test, stack_chk_fail_aborts) {
    binfmt::image img;
    auto& f = img.add_function("f");
    f.emit({call_sym(img.sym(binfmt::sym_stack_chk_fail)), ret()});
    binfmt::add_standard_library(img, GetParam());
    const auto binary = img.link(GetParam());
    vm::machine m{binary.make_program(), vm::memory::layout{}, 1};
    m.call_function(binary.symbols.at("f"));
    m.set_fuel(1000);
    const auto r = m.run();
    EXPECT_EQ(r.status, vm::exec_status::trapped);
    EXPECT_EQ(r.trap, vm::trap_kind::stack_smash);
}

TEST(stdlib, static_mode_embeds_more_text_than_dynamic) {
    auto build = [](binfmt::link_mode mode) {
        binfmt::image img;
        img.add_function("f").emit(ret());
        binfmt::add_standard_library(img, mode);
        return img.link(mode).text_bytes();
    };
    EXPECT_GT(build(binfmt::link_mode::static_glibc),
              build(binfmt::link_mode::dynamic_glibc));
}

}  // namespace
}  // namespace pssp
