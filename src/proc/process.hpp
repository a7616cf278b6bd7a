// Process lifecycle: creation, fork, thread spawn, and a fork-aware
// executor.
//
// A "process" is a vm::machine (registers + private memory image). The
// manager reproduces the kernel- and loader-level behavior the paper's
// schemes interact with:
//   * creation   — loads the binary's globals, assigns a pid, and runs the
//                  runtime's setup hook (the setup_p-ssp constructor);
//   * fork       — clones the machine wholesale (memory, registers, TLS —
//                  including the canaries, exactly the inheritance the
//                  byte-by-byte attack exploits), reseeds the child's
//                  entropy source (real rdrand streams diverge across
//                  cores), then runs the scheme's fork hook in the child;
//   * threads    — a clone with a fresh stack and a copied TLS block, then
//                  the pthread_create hook. Shared data is not modeled: no
//                  canary experiment in the paper depends on cross-thread
//                  stores, only on TLS inheritance (DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "binfmt/image.hpp"
#include "core/runtime.hpp"
#include "vm/machine.hpp"

namespace pssp::proc {

class process_manager {
  public:
    process_manager(std::shared_ptr<const core::scheme> sch, std::uint64_t seed);

    // Loads `binary` into a fresh process: globals initialized from the
    // image, pid assigned, runtime setup executed.
    [[nodiscard]] vm::machine create_process(const binfmt::linked_binary& binary,
                                             const vm::memory::layout& layout = {});

    // create_process, split for the boot-amortizing trial pool. make_image
    // builds the cold half (memory allocation + globals init) around an
    // already-shared program — no pid, no entropy, no runtime setup; it is
    // the state a reusable server snapshots once and restores per trial.
    // boot_image performs the hot, seed-dependent half and brings the image
    // to exactly the state create_process would have produced.
    [[nodiscard]] vm::machine make_image(std::shared_ptr<const vm::program> prog,
                                         std::span<const std::uint8_t> data_init,
                                         std::uint64_t data_base,
                                         const vm::memory::layout& layout = {});
    void boot_image(vm::machine& m);

    // Forks `parent`: returns the child, ready to resume. The caller is
    // responsible for completing the fork syscall on both sides
    // (parent rax = child pid, child rax = 0) when the fork came from VM
    // code; see executor / fork_server.
    [[nodiscard]] vm::machine fork_child(const vm::machine& parent);

    // The post-clone tail of fork_child (pid, output, entropy stream, fork
    // hook) applied to a machine that is already a byte-exact replica of
    // the parent. The fork server recycles one worker machine per request
    // via machine::sync_from + this, skipping the image copy.
    void fork_child_finish(vm::machine& child);

    // Spawns a thread of `parent`: same image, fresh stack (the caller
    // points it at the thread entry via call_function), pthread hook run.
    [[nodiscard]] vm::machine spawn_thread(const vm::machine& parent);

    // Rewinds pids, the entropy sequence, and the runtime PRNG to the
    // state a fresh process_manager{sch, seed} would have — the reuse
    // path's equivalent of constructing a new manager per trial.
    void reset(std::uint64_t seed) noexcept;

    [[nodiscard]] core::runtime& rt() noexcept { return runtime_; }
    [[nodiscard]] std::uint32_t last_pid() const noexcept { return next_pid_ - 1; }

  private:
    core::runtime runtime_;
    std::uint32_t next_pid_ = 1;
    std::uint64_t entropy_seq_;
};

// Runs a process (and, depth-first, every child it forks) to completion.
struct exec_outcome {
    vm::run_result result;    // terminal state of the *root* process
    std::string output;       // concatenated sys_write output, root first
    std::uint64_t processes = 1;  // total processes in the tree
};

class executor {
  public:
    executor(process_manager& manager, std::uint64_t fuel_per_process)
        : manager_{manager}, fuel_{fuel_per_process} {}

    // Runs `m` until it exits or traps. Children forked along the way run
    // to completion (recursively) at the moment of the fork, then the
    // parent resumes with the child's pid in rax.
    exec_outcome run(vm::machine& m, int depth = 0);

  private:
    process_manager& manager_;
    std::uint64_t fuel_;
    static constexpr int max_fork_depth = 16;
};

}  // namespace pssp::proc
