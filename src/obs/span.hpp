// Scoped-span tracer with per-thread lock-free rings, Chrome trace_event
// export, and a crash flight recorder.
//
// A span is a named interval on the monotonic clock: construct an
// obs::span at the top of a scope and its destructor records
// {name, category, start, duration, arg, thread} into the calling
// thread's ring buffer. Rings are fixed-capacity and strictly
// thread-local for writes (one store per field, an index bump, no CAS
// loop, no allocation after ring creation), so tracing a campaign round
// or a 64-trial block costs nanoseconds and never contends. Overflow
// overwrites the oldest entry — the ring always holds the newest N
// completed spans, which is exactly what a post-mortem wants.
//
// Tracing is off by default (spans early-out on one relaxed load);
// enable_tracing(true) arms it process-wide. Exports:
//
//   chrome_trace_json()   all threads' rings as Chrome trace_event JSON
//                         ("ph":"X" complete events, microsecond
//                         timestamps) — load the file in chrome://tracing
//                         or https://ui.perfetto.dev.
//   flight_record_json()  the newest spans across rings as a compact
//                         bounded JSON object; workers checkpoint this to
//                         the path in set_flight_path() (tmp + rename, so
//                         a crash mid-write never leaves a torn file) and
//                         the orchestrator embeds it in the dead
//                         shard's postmortem, obs-postmortem-<shard>
//                         [-round<R>][-attempt<N>].json.
//
// Like the registry, this is a side channel: span contents never feed
// back into trial outcomes or report bytes, and PSSP_OBS=0 compiles the
// whole thing down to empty inline stubs.
#pragma once

#include <cstdint>
#include <string>

#ifndef PSSP_OBS
#define PSSP_OBS 1
#endif

namespace pssp::obs {

#if PSSP_OBS

// Process-wide arm/disarm. Disabled spans cost one relaxed atomic load.
void enable_tracing(bool on) noexcept;
[[nodiscard]] bool tracing_enabled() noexcept;

// Nanoseconds on the same steady clock spans use; for manual emission.
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

// Records a completed span directly — for intervals that don't nest as a
// C++ scope, e.g. a worker process's lifetime measured in the
// orchestrator across fork and waitpid.
void emit_span(const char* name, const char* category,
               std::uint64_t start_ns, std::uint64_t duration_ns,
               std::int64_t arg = -1) noexcept;

// RAII scoped span. `name` is copied (truncated to an inline buffer);
// `category` must be a string literal or otherwise outlive the export.
// `arg` lands in the trace event's args object when >= 0 (block index,
// shard id, round number, ...).
class span {
  public:
    explicit span(const char* name, const char* category = "pssp",
                  std::int64_t arg = -1) noexcept;
    ~span();
    span(const span&) = delete;
    span& operator=(const span&) = delete;

    // Attach/replace the arg after construction (e.g. a result count).
    void set_arg(std::int64_t arg) noexcept { arg_ = arg; }

  private:
    std::uint64_t start_ns_ = 0;
    std::int64_t arg_ = -1;
    const char* category_ = nullptr;
    char name_[48] = {};
    bool armed_ = false;
};

// Spans per thread ring before the oldest is overwritten. Applies to
// rings created after the call; test hook.
void set_ring_capacity(std::uint32_t spans);

// Drops all recorded spans (rings stay allocated). Test isolation.
void clear_spans_for_test();

// Number of spans currently buffered across all rings.
[[nodiscard]] std::uint64_t buffered_span_count();

// Full export: Chrome trace_event JSON document. `process_name` labels
// this process's track in the viewer (e.g. "shard 3").
[[nodiscard]] std::string chrome_trace_json(
    const std::string& process_name = "");

// Bounded export: the newest `max_spans` spans (across all rings, by end
// time) as {"spans":[{name,cat,start_ns,dur_ns,tid,arg},...]}.
[[nodiscard]] std::string flight_record_json(std::size_t max_spans = 256);

// Flight recorder: when a path is set, flight_checkpoint() atomically
// rewrites it with flight_record_json(). Workers call this at protocol
// milestones so the file is near-current whenever the process dies.
void set_flight_path(std::string path);
void flight_checkpoint() noexcept;

#else  // PSSP_OBS == 0: tracing compiles to nothing.

inline void enable_tracing(bool) noexcept {}
[[nodiscard]] inline bool tracing_enabled() noexcept { return false; }
[[nodiscard]] inline std::uint64_t trace_now_ns() noexcept { return 0; }
inline void emit_span(const char*, const char*, std::uint64_t, std::uint64_t,
                      std::int64_t = -1) noexcept {}

class span {
  public:
    explicit span(const char*, const char* = "pssp", std::int64_t = -1) noexcept {}
    span(const span&) = delete;
    span& operator=(const span&) = delete;
    void set_arg(std::int64_t) noexcept {}
};

inline void set_ring_capacity(std::uint32_t) {}
inline void clear_spans_for_test() {}
[[nodiscard]] inline std::uint64_t buffered_span_count() { return 0; }
[[nodiscard]] inline std::string chrome_trace_json(const std::string& = "") {
    return "{\"traceEvents\": []}";
}
[[nodiscard]] inline std::string flight_record_json(std::size_t = 256) {
    return "{\"spans\": []}";
}
inline void set_flight_path(std::string) {}
inline void flight_checkpoint() noexcept {}

#endif  // PSSP_OBS

}  // namespace pssp::obs
