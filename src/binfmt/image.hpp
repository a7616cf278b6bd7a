// Relocatable binary image and linker.
//
// An `image` is the compiler's output: named functions of decoded
// instructions with symbolic call targets and local labels, plus data
// objects and native-import declarations. `link()` lays the image out at
// realistic virtual addresses and produces a `linked_binary` — the unit the
// binary rewriter instruments and the loader turns into a vm::program.
//
// Two link modes mirror the paper's deployment split (Section V-C/D):
//   * dynamic_glibc — libc entry points resolve to PLT slots bound to
//     native (host) handlers; the P-SSP runtime retargets them at load
//     time, the LD_PRELOAD analog. Instrumentation adds zero bytes.
//   * static_glibc  — libc is VM code embedded in .text; upgrading the
//     binary to P-SSP requires the Dyninst-style appended code section,
//     which is where Table II's 2.78% static expansion comes from.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "vm/isa.hpp"
#include "vm/program.hpp"

namespace pssp::binfmt {

enum class link_mode : std::uint8_t { dynamic_glibc, static_glibc };

[[nodiscard]] std::string to_string(link_mode mode);

// A function under construction. Labels are function-local: allocate with
// new_label(), bind with place(), reference from jump builders.
class bin_function {
  public:
    bin_function(std::string name, bool from_libc)
        : name_{std::move(name)}, from_libc_{from_libc} {}

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] bool from_libc() const noexcept { return from_libc_; }

    [[nodiscard]] std::uint32_t new_label() noexcept { return next_label_++; }

    // Binds `label` to the next emitted instruction.
    void place(std::uint32_t label);

    void emit(vm::instruction insn);
    void emit(std::initializer_list<vm::instruction> insns);

    [[nodiscard]] const std::vector<vm::instruction>& insns() const noexcept {
        return insns_;
    }
    [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint32_t>& labels()
        const noexcept {
        return label_at_;
    }

    // Total modeled encoding size in bytes.
    [[nodiscard]] std::uint64_t size_bytes() const noexcept;

  private:
    std::string name_;
    bool from_libc_;
    std::vector<vm::instruction> insns_;
    std::unordered_map<std::uint32_t, std::uint32_t> label_at_;
    std::uint32_t next_label_ = 0;
    std::vector<std::uint32_t> pending_labels_;
};

// A .data/.bss object.
struct data_object {
    std::string name;
    std::size_t size = 0;
    std::vector<std::uint8_t> init;  // may be shorter than size (zero-filled)
};

class image {
  public:
    // Interns `name` into the symbol table and returns its id — usable as a
    // call target (isa::call_sym) or a mov_ri address relocation before the
    // symbol is even defined.
    [[nodiscard]] std::uint32_t sym(const std::string& name);
    [[nodiscard]] const std::string& sym_name(std::uint32_t id) const;

    // Adds an empty function and returns a reference for emitting into.
    // References stay valid: functions are stored via unique_ptr.
    bin_function& add_function(const std::string& name, bool from_libc = false);
    [[nodiscard]] bin_function* find_function(const std::string& name) noexcept;
    [[nodiscard]] const std::vector<std::unique_ptr<bin_function>>& functions()
        const noexcept {
        return functions_;
    }

    void add_data(data_object obj);
    [[nodiscard]] const std::vector<data_object>& data() const noexcept { return data_; }

    // Declares a host-native import (e.g. AES_ENCRYPT_128, or glibc string
    // functions in dynamic mode). `fn` is a plain noexcept function that
    // returns a trap status instead of throwing (vm::native_fn).
    void add_native_import(const std::string& name, vm::native_fn fn);

    struct linked_binary;
    [[nodiscard]] linked_binary link(link_mode mode) const;

  private:
    std::vector<std::string> symtab_;
    std::unordered_map<std::string, std::uint32_t> sym_ids_;
    std::vector<std::unique_ptr<bin_function>> functions_;
    std::unordered_map<std::string, std::size_t> function_index_;
    std::vector<data_object> data_;
    std::vector<std::pair<std::string, vm::native_fn>> native_imports_;
};

// Post-link function: owns its (address-annotated) instructions so the
// rewriter can splice ranges without disturbing neighbors.
struct linked_function {
    std::string name;
    std::uint64_t entry = 0;
    std::vector<vm::instruction> insns;
    std::vector<std::uint64_t> addrs;  // parallel to insns
    bool from_libc = false;
    bool appended = false;  // lives in the rewriter's appended section

    [[nodiscard]] std::uint64_t size_bytes() const noexcept;
    // Recomputes addrs from `entry` and instruction encodings.
    void relayout() noexcept;
};

// The linked executable. Mutable by design: the binary rewriter edits it in
// place under the same-length constraint, then the loader snapshots it into
// an immutable vm::program.
struct image::linked_binary {
    link_mode mode = link_mode::dynamic_glibc;
    std::vector<linked_function> functions;
    std::unordered_map<std::string, std::uint64_t> symbols;       // code + plt
    std::unordered_map<std::string, std::uint64_t> data_symbols;  // globals
    std::unordered_map<std::uint64_t, vm::native_fn> natives;     // addr -> fn
    std::uint64_t text_base = 0;
    std::uint64_t text_end = 0;   // first free address after .text (+appended)
    std::uint64_t plt_bytes = 0;  // size of the PLT analog (dynamic mode)
    std::uint64_t data_bytes = 0;
    std::vector<std::uint8_t> data_init;  // initial globals content
    std::uint64_t data_base = 0;

    [[nodiscard]] linked_function* find(const std::string& name) noexcept;
    [[nodiscard]] const linked_function* find(const std::string& name) const noexcept;

    // Sum of function bytes (the .text section, including appended code).
    [[nodiscard]] std::uint64_t text_bytes() const noexcept;

    // Replaces instructions [first, first+count) of `fn` with `repl`.
    // Enforces the rewriter's layout-preservation rule: the replacement
    // must encode to exactly the same number of bytes. Throws otherwise.
    void replace_range(linked_function& fn, std::size_t first, std::size_t count,
                       std::vector<vm::instruction> repl);

    // Appends `code` as a new function in a fresh section after .text
    // (Dyninst analog); returns its entry address.
    std::uint64_t append_function(const std::string& name, bin_function code);

    // Rebinds (or binds) the native handler for symbol `name`; creates a
    // PLT-like native slot if the symbol is unknown. This is the
    // LD_PRELOAD analog used by the P-SSP runtime.
    void bind_native(const std::string& name, vm::native_fn fn);

    // Snapshots into an executable program (flattening all functions and
    // rebuilding the address index).
    [[nodiscard]] std::shared_ptr<const vm::program> make_program() const;
};

using linked_binary = image::linked_binary;

// One row of a layout snapshot: where a function sits and how many bytes
// it occupies, plus every symbol address. Two snapshots compare equal iff
// nothing the rewriter must preserve has moved.
struct layout_entry {
    std::string name;
    std::uint64_t entry = 0;
    std::uint64_t bytes = 0;

    friend bool operator==(const layout_entry&, const layout_entry&) = default;
};

struct layout_snapshot {
    std::vector<layout_entry> functions;          // layout order
    std::vector<std::pair<std::string, std::uint64_t>> symbols;  // sorted

    friend bool operator==(const layout_snapshot&, const layout_snapshot&) = default;
};

// Captures the address layout of `binary`. The rewriter's in-place edits
// must leave the snapshot of the pre-existing entries bit-identical;
// static-mode appends may only *extend* it (audit::layout_preserved).
[[nodiscard]] layout_snapshot take_layout_snapshot(const linked_binary& binary);

// True when `post` equals `pre` up to appended additions: every pre entry
// unchanged (same name/entry/bytes at the same rank; same symbol
// addresses) and anything new strictly after/extra.
[[nodiscard]] bool layout_preserved(const layout_snapshot& pre,
                                    const layout_snapshot& post);

// Default virtual layout.
inline constexpr std::uint64_t default_text_base = 0x0000000000401000ull;
inline constexpr std::uint64_t default_plt_base = 0x0000000000400100ull;
inline constexpr std::uint64_t plt_entry_bytes = 16;

}  // namespace pssp::binfmt
