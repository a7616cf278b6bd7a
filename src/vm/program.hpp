// A linked, executable program: the output of binfmt::link_image and the
// input to vm::machine.
//
// Instructions are kept as decoded structs, but each carries the virtual
// byte address its x86-64 encoding would occupy. Control flow (call/ret/
// jmp targets, and crucially *return addresses stored on the simulated
// stack*) operates on those byte addresses, so an attacker who overwrites
// a saved return address redirects execution exactly as on real hardware —
// or crashes on a non-instruction-boundary target.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "vm/dispatch.hpp"
#include "vm/isa.hpp"

namespace pssp::vm {

// Pre-resolved control flow for one instruction, computed once at load
// time by program::finalize(). The interpreter's jmp/jcc/call dispatch
// reads these fields instead of hashing the target address per transfer;
// only ret (whose target comes off the — possibly attacker-controlled —
// simulated stack) still resolves dynamically through index_of().
struct resolved_flow {
    std::uint32_t target = no_id;       // jmp/jcc/call: target instruction index
    std::uint64_t return_addr = 0;      // call: address of the next instruction
    native_fn native = nullptr;         // call: bound native helper, if any
};

struct program {
    std::vector<instruction> insns;
    std::vector<std::uint64_t> addrs;  // parallel to insns: start address
    std::vector<resolved_flow> flow;   // parallel to insns; see finalize()

    // The direct-threaded execution stream: one decoded op per instruction
    // (indices coincide with insns) plus the trapping end-of-stream
    // sentinel at code[insns.size()]. Hot positions carry fused
    // superinstruction handlers; see vm/dispatch.hpp. Built by finalize(),
    // immutable afterwards, and shared by every machine running this
    // program — snapshots and forks never copy it.
    std::vector<decoded_op> code;

    // Exact-start address -> instruction index (control transfers only land
    // on instruction starts; anything else is an invalid-jump trap).
    std::unordered_map<std::uint64_t, std::uint32_t> addr_to_index;

    // Native helper bindings, keyed by the callable's entry address.
    std::unordered_map<std::uint64_t, native_fn> natives;

    // Symbol table: function name -> entry address (includes native stubs).
    std::unordered_map<std::string, std::uint64_t> symbols;

    std::uint64_t text_base = 0;
    std::uint64_t text_size = 0;  // bytes, including any appended sections

    // Entry address of `name`; throws std::out_of_range if absent.
    [[nodiscard]] std::uint64_t entry_of(const std::string& name) const {
        return symbols.at(name);
    }

    [[nodiscard]] bool has_symbol(const std::string& name) const {
        return symbols.contains(name);
    }

    // Index of the instruction starting at `addr`, or no_id.
    [[nodiscard]] std::uint32_t index_of(std::uint64_t addr) const {
        const auto it = addr_to_index.find(addr);
        return it == addr_to_index.end() ? no_id : it->second;
    }

    // Pre-resolves control flow into `flow` (see resolved_flow), then
    // lowers the instruction stream into the decoded `code` array (1:1
    // records, the superinstruction fusion pass, the end-of-stream
    // sentinel). Must be called after insns/addrs/addr_to_index/natives are
    // final — the loader (linked_binary::make_program) does this; a machine
    // refuses to run a program whose flow or code table is missing or
    // stale.
    void finalize();
};

// Returned by ret when the initial (harness-provided) frame returns:
// popping this sentinel ends execution normally. Outside every mapped
// region and the text segment.
inline constexpr std::uint64_t return_sentinel = 0x00005e7712e70000ull;

}  // namespace pssp::vm
