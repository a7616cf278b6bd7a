#include "proc/fork_server.hpp"

#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"

namespace pssp::proc {

std::string to_string(worker_outcome outcome) {
    switch (outcome) {
        case worker_outcome::ok: return "ok";
        case worker_outcome::crashed_canary: return "crashed (canary)";
        case worker_outcome::crashed_segv: return "crashed (segfault)";
        case worker_outcome::crashed_cf: return "crashed (bad control flow)";
        case worker_outcome::hijacked: return "HIJACKED";
        case worker_outcome::out_of_fuel: return "crashed (runaway)";
    }
    return "?";
}

fork_server::fork_server(const binfmt::linked_binary& binary,
                         std::shared_ptr<const core::scheme> sch, std::uint64_t seed,
                         server_config config,
                         std::shared_ptr<const vm::program> program)
    : manager_{std::move(sch), seed},
      config_{std::move(config)},
      master_{manager_.make_image(
          program != nullptr ? std::move(program) : binary.make_program(),
          binary.data_init, binary.data_base)} {
    const auto it = binary.data_symbols.find(config_.request_symbol);
    if (it == binary.data_symbols.end())
        throw std::invalid_argument{"fork_server: no request buffer symbol '" +
                                    config_.request_symbol + "' in binary"};
    request_addr_ = it->second;
    if (const auto len_it = binary.data_symbols.find(config_.length_symbol);
        len_it != binary.data_symbols.end())
        length_addr_ = len_it->second;
    entry_addr_ = binary.symbols.at(config_.entry);
    if (config_.reusable) {
        // Pre-boot snapshot: everything seed-independent (zeroed regions +
        // globals image). reboot() rewinds to here by dirty pages alone.
        preboot_ = std::make_unique<vm::machine>(master_);
        master_.mem().mark_clean(vm::dirty_channel::restore);
    }
    boot(seed);
}

void fork_server::boot(std::uint64_t seed) {
    manager_.reset(seed);
    manager_.boot_image(master_);
    master_.call_function(entry_addr_);
    requests_ = 0;
    crashes_ = 0;
    run_master_to_fork();
    if (!master_ready_)
        throw std::runtime_error{"fork_server: master never reached a fork"};
}

void fork_server::reboot(std::uint64_t seed) {
    if (preboot_ == nullptr)
        throw std::logic_error{
            "fork_server::reboot: server not constructed with config.reusable"};
    // Telemetry only (side channel): how much the restore channel actually
    // moves per reboot is the number the snapshot fast path lives on.
    static const auto c_reboots = obs::counter("proc.server.reboots");
    static const auto h_dirty = obs::histogram("proc.reboot.dirty_pages");
    obs::add(c_reboots, 1);
    obs::observe(h_dirty,
                 master_.mem().dirty_pages(vm::dirty_channel::restore));
    master_.restore_from(*preboot_);
    boot(seed);
}

void fork_server::run_master_to_fork() {
    master_ready_ = false;
    master_.set_fuel(master_.steps() + config_.master_fuel);
    const vm::run_result r = master_.run();
    if (r.status == vm::exec_status::syscalled &&
        r.syscall_number == static_cast<std::uint32_t>(vm::syscall_no::sys_fork))
        master_ready_ = true;
}

serve_result fork_server::serve(std::string_view request) {
    return serve(std::span{reinterpret_cast<const std::uint8_t*>(request.data()),
                           request.size()});
}

vm::machine& fork_server::next_worker() {
    if (worker_ == nullptr) {
        // First request: one full clone, after which the worker and master
        // diverge only by the pages a request actually touches. From the
        // clean point both sides' fork channels track that divergence.
        worker_ = std::make_unique<vm::machine>(master_);
        worker_->mem().mark_clean(vm::dirty_channel::fork);
        master_.mem().mark_clean(vm::dirty_channel::fork);
    } else {
        worker_->sync_from(master_);
    }
    manager_.fork_child_finish(*worker_);
    return *worker_;
}

serve_result fork_server::serve(std::span<const std::uint8_t> request) {
    if (!master_ready_) throw std::runtime_error{"fork_server: master is down"};
    ++requests_;

    // fork(): the worker inherits everything, then the runtime's fork hook
    // runs (shadow-canary refresh under P-SSP, TLS renewal under RAF, CAB
    // walk under DynaGuard, ...). The clone is a dirty-page sync against
    // the recycled worker machine, not an image copy; machine scalars ride
    // along cheaply too — the decoded dispatch stream lives in the shared
    // program and the flattened cost table behind a shared pointer, so
    // neither is ever copied per request.
    vm::machine& worker = next_worker();
    worker.complete_syscall(0);  // child side of fork

    // Deliver the request: network bytes land in the worker's buffer with
    // a terminating NUL (the handler parses them as a C string).
    std::vector<std::uint8_t> payload{request.begin(), request.end()};
    if (payload.size() >= config_.request_capacity)
        payload.resize(config_.request_capacity - 1);
    const std::uint64_t wire_length = payload.size();
    payload.push_back(0);
    worker.mem().write_bytes(request_addr_, payload);
    if (length_addr_ != 0) worker.mem().store64(length_addr_, wire_length);

    const std::uint64_t cycles_before = worker.cycles();
    const std::uint64_t steps_before = worker.steps();
    worker.set_fuel(worker.steps() + config_.worker_fuel);
    const vm::run_result r = worker.run();

    serve_result result;
    result.raw = r;
    result.output = worker.output();
    result.worker_cycles = worker.cycles() - cycles_before;
    result.worker_steps = worker.steps() - steps_before;

    if (result.output.find(hijack_marker) != std::string::npos) {
        result.outcome = worker_outcome::hijacked;
    } else if (r.status == vm::exec_status::exited) {
        result.outcome = worker_outcome::ok;
    } else if (r.status == vm::exec_status::out_of_fuel) {
        result.outcome = worker_outcome::out_of_fuel;
        ++crashes_;
    } else {
        switch (r.trap) {
            case vm::trap_kind::stack_smash:
                result.outcome = worker_outcome::crashed_canary;
                break;
            case vm::trap_kind::invalid_jump:
                result.outcome = worker_outcome::crashed_cf;
                break;
            default:
                result.outcome = worker_outcome::crashed_segv;
                break;
        }
        ++crashes_;
    }

    // Telemetry only (side channel): request volume, crash rate, how much
    // work a request costs, and how many pages the per-request fork sync
    // actually moved.
    static const auto c_requests = obs::counter("proc.serve.requests");
    static const auto c_crashes = obs::counter("proc.serve.crashes");
    static const auto h_steps = obs::histogram("proc.serve.worker_steps");
    static const auto h_fork_dirty = obs::histogram("proc.fork.dirty_pages");
    obs::add(c_requests, 1);
    if (result.outcome != worker_outcome::ok &&
        result.outcome != worker_outcome::hijacked)
        obs::add(c_crashes, 1);
    obs::observe(h_steps, result.worker_steps);
    obs::observe(h_fork_dirty,
                 worker.mem().dirty_pages(vm::dirty_channel::fork));

    // The master reaps the worker and accepts the next connection.
    master_.complete_syscall(worker.pid());
    run_master_to_fork();
    return result;
}

server_batch::server_batch(std::shared_ptr<const binfmt::linked_binary> binary,
                           core::scheme_kind kind, core::scheme_options options,
                           server_config config)
    : binary_{std::move(binary)}, kind_{kind}, options_{options},
      config_{std::move(config)} {
    if (!binary_) throw std::invalid_argument{"server_batch: null binary"};
    program_ = binary_->make_program();
}

fork_server server_batch::make(std::uint64_t seed) const {
    return fork_server{*binary_, core::make_scheme(kind_, options_), seed, config_,
                       program_};
}

}  // namespace pssp::proc
