#include "binfmt/image.hpp"

#include <algorithm>
#include <stdexcept>

#include "vm/memory.hpp"

namespace pssp::binfmt {

std::string to_string(link_mode mode) {
    return mode == link_mode::dynamic_glibc ? "dynamic" : "static";
}

// ---- bin_function ----------------------------------------------------------

void bin_function::place(std::uint32_t label) { pending_labels_.push_back(label); }

void bin_function::emit(vm::instruction insn) {
    const auto index = static_cast<std::uint32_t>(insns_.size());
    for (std::uint32_t label : pending_labels_) label_at_[label] = index;
    pending_labels_.clear();
    insns_.push_back(insn);
}

void bin_function::emit(std::initializer_list<vm::instruction> insns) {
    for (const auto& insn : insns) emit(insn);
}

std::uint64_t bin_function::size_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& insn : insns_) total += vm::encoded_length(insn);
    return total;
}

// ---- image -----------------------------------------------------------------

std::uint32_t image::sym(const std::string& name) {
    const auto it = sym_ids_.find(name);
    if (it != sym_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(symtab_.size());
    symtab_.push_back(name);
    sym_ids_.emplace(name, id);
    return id;
}

const std::string& image::sym_name(std::uint32_t id) const { return symtab_.at(id); }

bin_function& image::add_function(const std::string& name, bool from_libc) {
    if (function_index_.contains(name))
        throw std::invalid_argument{"duplicate function: " + name};
    functions_.push_back(std::make_unique<bin_function>(name, from_libc));
    function_index_.emplace(name, functions_.size() - 1);
    return *functions_.back();
}

bin_function* image::find_function(const std::string& name) noexcept {
    const auto it = function_index_.find(name);
    if (it == function_index_.end()) return nullptr;
    return functions_[it->second].get();
}

void image::add_data(data_object obj) {
    if (obj.init.size() > obj.size)
        throw std::invalid_argument{"data init larger than object: " + obj.name};
    data_.push_back(std::move(obj));
}

void image::add_native_import(const std::string& name, vm::native_fn fn) {
    native_imports_.emplace_back(name, fn);
}

// ---- linked_function ---------------------------------------------------------

std::uint64_t linked_function::size_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& insn : insns) total += vm::encoded_length(insn);
    return total;
}

void linked_function::relayout() noexcept {
    addrs.resize(insns.size());
    std::uint64_t addr = entry;
    for (std::size_t i = 0; i < insns.size(); ++i) {
        addrs[i] = addr;
        addr += vm::encoded_length(insns[i]);
    }
}

// ---- link -------------------------------------------------------------------

image::linked_binary image::link(link_mode mode) const {
    linked_binary out;
    out.mode = mode;
    out.text_base = default_text_base;

    // Pass 1: place every function (app code first, libc after, mirroring a
    // typical static-link layout) and record code symbol addresses.
    std::uint64_t cursor = out.text_base;
    auto place = [&](const bin_function& fn) {
        linked_function lf;
        lf.name = fn.name();
        lf.entry = cursor;
        lf.insns = fn.insns();
        lf.from_libc = fn.from_libc();
        lf.relayout();
        cursor += lf.size_bytes();
        out.symbols[lf.name] = lf.entry;
        out.functions.push_back(std::move(lf));
    };
    for (const auto& fn : functions_)
        if (!fn->from_libc()) place(*fn);
    for (const auto& fn : functions_)
        if (fn->from_libc()) place(*fn);
    out.text_end = cursor;

    // Pass 2: PLT slots for native imports that are not satisfied by image
    // functions (a static image may override an import with real code).
    std::uint64_t plt_cursor = default_plt_base;
    for (const auto& [name, fn] : native_imports_) {
        if (out.symbols.contains(name)) continue;
        out.symbols[name] = plt_cursor;
        out.natives[plt_cursor] = fn;
        plt_cursor += plt_entry_bytes;
        out.plt_bytes += plt_entry_bytes;
    }

    // Pass 3: data layout.
    std::uint64_t data_cursor = vm::default_globals_base;
    out.data_base = vm::default_globals_base;
    for (const auto& obj : data_) {
        // 16-byte alignment keeps buffers word-disjoint, which the overflow
        // tests rely on when they reason about exact byte offsets.
        data_cursor = (data_cursor + 15) & ~std::uint64_t{15};
        out.data_symbols[obj.name] = data_cursor;
        const std::uint64_t offset = data_cursor - out.data_base;
        if (offset + obj.size > out.data_init.size())
            out.data_init.resize(offset + obj.size, 0);
        std::copy(obj.init.begin(), obj.init.end(), out.data_init.begin() + offset);
        data_cursor += obj.size;
    }
    out.data_bytes = data_cursor - out.data_base;

    // Pass 4: resolve symbolic operands.
    auto resolve = [&](std::uint32_t sym_id) -> std::uint64_t {
        const std::string& name = sym_name(sym_id);
        if (const auto it = out.symbols.find(name); it != out.symbols.end())
            return it->second;
        if (const auto it = out.data_symbols.find(name); it != out.data_symbols.end())
            return it->second;
        throw std::runtime_error{"link (" + to_string(mode) +
                                 "): unresolved symbol: " + name};
    };

    for (std::size_t f = 0; f < out.functions.size(); ++f) {
        linked_function& lf = out.functions[f];
        const bin_function& src = *functions_[function_index_.at(lf.name)];
        for (std::size_t i = 0; i < lf.insns.size(); ++i) {
            vm::instruction& insn = lf.insns[i];
            if (insn.sym != vm::no_id) {
                insn.imm = resolve(insn.sym);
            } else if (insn.label != vm::no_id) {
                const auto target = src.labels().find(insn.label);
                if (target == src.labels().end())
                    throw std::runtime_error{"link: unbound label in " + lf.name};
                if (target->second >= lf.addrs.size())
                    throw std::runtime_error{"link: label past end of " + lf.name};
                insn.imm = lf.addrs[target->second];
            }
        }
    }

    return out;
}

// ---- linked_binary -----------------------------------------------------------

linked_function* image::linked_binary::find(const std::string& name) noexcept {
    for (auto& fn : functions)
        if (fn.name == name) return &fn;
    return nullptr;
}

const linked_function* image::linked_binary::find(const std::string& name) const noexcept {
    for (const auto& fn : functions)
        if (fn.name == name) return &fn;
    return nullptr;
}

std::uint64_t image::linked_binary::text_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& fn : functions) total += fn.size_bytes();
    return total;
}

void image::linked_binary::replace_range(linked_function& fn, std::size_t first,
                                         std::size_t count,
                                         std::vector<vm::instruction> repl) {
    if (first + count > fn.insns.size())
        throw std::out_of_range{"replace_range: span exceeds function " + fn.name};
    std::uint64_t old_bytes = 0;
    for (std::size_t i = first; i < first + count; ++i)
        old_bytes += vm::encoded_length(fn.insns[i]);
    std::uint64_t new_bytes = 0;
    for (const auto& insn : repl) new_bytes += vm::encoded_length(insn);
    if (old_bytes != new_bytes)
        throw std::runtime_error{
            "replace_range: layout-preservation violation in " + fn.name + " (" +
            std::to_string(old_bytes) + " -> " + std::to_string(new_bytes) +
            " bytes); the rewriter must emit same-length patches"};
    fn.insns.erase(fn.insns.begin() + static_cast<std::ptrdiff_t>(first),
                   fn.insns.begin() + static_cast<std::ptrdiff_t>(first + count));
    fn.insns.insert(fn.insns.begin() + static_cast<std::ptrdiff_t>(first),
                    repl.begin(), repl.end());
    fn.relayout();
}

std::uint64_t image::linked_binary::append_function(const std::string& name,
                                                    bin_function code) {
    // New section: page-align past the current end of text, like Dyninst's
    // freshly mapped instrumentation segment.
    const std::uint64_t entry = (text_end + 0xfff) & ~std::uint64_t{0xfff};
    linked_function lf;
    lf.name = name;
    lf.entry = entry;
    lf.insns = code.insns();
    lf.appended = true;
    lf.relayout();

    // Resolve local labels against the fresh layout; symbolic call targets
    // must already be resolvable against this binary's symbol table.
    for (auto& insn : lf.insns) {
        if (insn.label != vm::no_id) {
            const auto it = code.labels().find(insn.label);
            if (it == code.labels().end())
                throw std::runtime_error{"append_function: unbound label in " + name};
            insn.imm = lf.addrs[it->second];
        } else if (insn.sym != vm::no_id) {
            throw std::runtime_error{
                "append_function: unresolved symbolic operand in " + name +
                "; resolve against linked symbols before appending"};
        }
    }

    text_end = entry + lf.size_bytes();
    symbols[name] = entry;
    functions.push_back(std::move(lf));
    return entry;
}

void image::linked_binary::bind_native(const std::string& name, vm::native_fn fn) {
    const auto it = symbols.find(name);
    if (it != symbols.end()) {
        natives[it->second] = fn;
        return;
    }
    // Fresh interposition slot past the PLT.
    const std::uint64_t slot = default_plt_base + plt_bytes;
    plt_bytes += plt_entry_bytes;
    symbols[name] = slot;
    natives[slot] = fn;
}

std::shared_ptr<const vm::program> image::linked_binary::make_program() const {
    auto prog = std::make_shared<vm::program>();
    prog->text_base = text_base;
    prog->text_size = text_end - text_base;
    prog->symbols = symbols;
    prog->natives = natives;
    std::size_t count = 0;
    for (const auto& fn : functions) count += fn.insns.size();
    prog->insns.reserve(count);
    prog->addrs.reserve(count);
    prog->addr_to_index.reserve(count);
    for (const auto& fn : functions) {
        for (std::size_t i = 0; i < fn.insns.size(); ++i) {
            const auto index = static_cast<std::uint32_t>(prog->insns.size());
            prog->insns.push_back(fn.insns[i]);
            prog->addrs.push_back(fn.addrs[i]);
            prog->addr_to_index.emplace(fn.addrs[i], index);
        }
    }
    prog->finalize();
    return prog;
}

layout_snapshot take_layout_snapshot(const linked_binary& binary) {
    layout_snapshot snap;
    snap.functions.reserve(binary.functions.size());
    for (const auto& fn : binary.functions)
        snap.functions.push_back({fn.name, fn.entry, fn.size_bytes()});
    snap.symbols.assign(binary.symbols.begin(), binary.symbols.end());
    std::sort(snap.symbols.begin(), snap.symbols.end());
    return snap;
}

bool layout_preserved(const layout_snapshot& pre, const layout_snapshot& post) {
    if (post.functions.size() < pre.functions.size()) return false;
    for (std::size_t i = 0; i < pre.functions.size(); ++i)
        if (!(post.functions[i] == pre.functions[i])) return false;
    // Every pre symbol must resolve to the same address; new symbols (the
    // appended-section entries) are allowed.
    for (const auto& [name, addr] : pre.symbols) {
        const auto it = std::lower_bound(
            post.symbols.begin(), post.symbols.end(), name,
            [](const auto& entry, const std::string& key) { return entry.first < key; });
        if (it == post.symbols.end() || it->first != name || it->second != addr)
            return false;
    }
    return true;
}

}  // namespace pssp::binfmt
