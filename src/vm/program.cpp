#include "vm/program.hpp"

namespace pssp::vm {

void program::finalize() {
    flow.assign(insns.size(), resolved_flow{});
    for (std::size_t i = 0; i < insns.size(); ++i) {
        const instruction& insn = insns[i];
        switch (insn.op) {
            case opcode::je:
            case opcode::jne:
            case opcode::jb:
            case opcode::jae:
            case opcode::jl:
            case opcode::jge:
            case opcode::jnc:
            case opcode::jmp:
                flow[i].target = index_of(insn.imm);
                break;
            case opcode::call: {
                // Natives win over code: a call into the PLT region never
                // has an instruction at its target.
                const auto it = natives.find(insn.imm);
                if (it != natives.end())
                    flow[i].native = it->second;
                else
                    flow[i].target = index_of(insn.imm);
                flow[i].return_addr = addrs[i] + encoded_length(insn);
                break;
            }
            default:
                break;
        }
    }

    // Lower into the direct-threaded stream: 1:1 decoded records first...
    code.clear();
    code.reserve(insns.size() + 1);
    for (std::size_t i = 0; i < insns.size(); ++i)
        code.push_back(lower_op(insns[i], flow[i].target, flow[i].return_addr,
                                flow[i].native));
    // ...then the fusion pass. Every eligible position is upgraded
    // independently (a fused op executes i and i+1, then re-enters at i+2,
    // where the record still has its standalone — possibly itself fused —
    // handler), so overlap needs no tie-breaking.
    for (std::size_t i = 0; i + 1 < insns.size(); ++i)
        if (const std::uint16_t fused = fuse_pair(insns[i], insns[i + 1]))
            code[i].handler = fused;
    // Falling off the end of the stream lands here instead of needing a
    // per-iteration bounds check in the run loop.
    code.push_back(sentinel_op());
}

}  // namespace pssp::vm
