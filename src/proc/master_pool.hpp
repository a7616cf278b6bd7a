// Boot-amortizing pool of reusable fork servers — the trial engine's
// answer to "each Monte-Carlo trial pays for a full master boot".
//
// A campaign cell runs thousands of trials against the same (binary,
// scheme) build, each needing a fork server booted under its own seed.
// Before the pool, every trial loaded the program (instruction stream +
// address index), mapped a fresh process image, wrote the globals, ran the
// runtime setup hook, and executed the master's boot path — then threw it
// all away. The pool keeps the seed-independent work
// alive:
//   * one vm::program — including its decoded direct-threaded dispatch
//     stream — shared by every server of the cell;
//   * one flattened cost table shared (behind an immutable shared_ptr)
//     by every machine cloned from a cell's first boot, so snapshot
//     restores stop re-copying the per-opcode array;
//   * idle fork_server objects parked after their trial, whose memory
//     images rewind to a pre-boot snapshot by dirty pages alone
//     (fork_server::reboot), after which only the short seed-dependent
//     boot path replays.
// The boot path *is* replayed per seed rather than patched: the master's
// prologues plant seed-derived canaries in the live accept-loop frames the
// workers will return through, so the only scheme-agnostic way to
// re-derive that state byte-exactly is to run the same few hundred
// instructions the fresh boot runs. The reproducibility contract is
// therefore strict equality: a pooled server rebooted for seed S behaves
// byte-identically to fork_server{binary, scheme, S} — pinned by
// tests/proc/master_pool_test.cpp, and what lets campaign::engine route
// trials through the pool without perturbing a single report byte.
//
// Thread-safe: acquire/release may be called concurrently from campaign
// worker threads. Each leased server is owned exclusively by its lease.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "proc/fork_server.hpp"

namespace pssp::proc {

class master_pool {
  public:
    // `program` optionally shares an already-loaded image (e.g. from a
    // server_batch); null loads one privately from `binary`.
    master_pool(std::shared_ptr<const binfmt::linked_binary> binary,
                core::scheme_kind kind, core::scheme_options options,
                server_config config,
                std::shared_ptr<const vm::program> program = nullptr);

    // Exclusive ownership of one booted server for the duration of a
    // trial; returns it to the pool's idle list on destruction.
    class lease {
      public:
        lease(lease&& other) noexcept
            : pool_{other.pool_}, server_{std::move(other.server_)} {
            other.pool_ = nullptr;
        }
        lease& operator=(lease&&) = delete;
        lease(const lease&) = delete;
        lease& operator=(const lease&) = delete;
        ~lease() {
            if (pool_ != nullptr && server_ != nullptr)
                pool_->release(std::move(server_));
        }

        [[nodiscard]] fork_server& server() noexcept { return *server_; }
        [[nodiscard]] fork_server* operator->() noexcept { return server_.get(); }

      private:
        friend class master_pool;
        lease(master_pool* pool, std::unique_ptr<fork_server> server) noexcept
            : pool_{pool}, server_{std::move(server)} {}

        master_pool* pool_;
        std::unique_ptr<fork_server> server_;
    };

    // Boots (or reboots an idle server) under `seed`.
    [[nodiscard]] lease acquire(std::uint64_t seed);

    // Caps how many idle servers the pool parks; releases beyond the cap
    // destroy the server instead. Unlimited by default. Sharded campaigns
    // size this to the process's worker count so a wide multi-process
    // fan-out doesn't hold one machine-width of idle images per shard.
    void set_idle_limit(std::size_t limit);
    [[nodiscard]] std::size_t idle_limit() const;

    // ---- Statistics (for benches and the pool test) ----
    [[nodiscard]] std::uint64_t boots() const noexcept {
        return boots_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t reuses() const noexcept {
        return reuses_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t idle() const;

    [[nodiscard]] core::scheme_kind kind() const noexcept { return kind_; }

  private:
    void release(std::unique_ptr<fork_server> server);

    std::shared_ptr<const binfmt::linked_binary> binary_;
    std::shared_ptr<const vm::program> program_;
    core::scheme_kind kind_;
    core::scheme_options options_;
    server_config config_;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<fork_server>> idle_;
    std::size_t idle_limit_ = SIZE_MAX;
    std::atomic<std::uint64_t> boots_{0};
    std::atomic<std::uint64_t> reuses_{0};
};

}  // namespace pssp::proc
