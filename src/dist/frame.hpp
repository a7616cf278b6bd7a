// The network wire: length-prefixed, integrity-hashed message frames.
//
// Everything the TCP coordinator, its remote worker nodes and every
// compute worker's stdin/stdout exchange travels as one frame:
//
//   u32   payload length (little-endian; counts payload bytes only)
//   u8    frame type (frame_type below)
//   ...   payload bytes
//   u64   FNV-1a 64 over the type byte followed by the payload
//
// The trailer hash is the partition-tolerance workhorse: a garbled or
// bit-flipped frame is detected at the receiver, classified as a protocol
// failure, and the connection is dropped — the lease the sender held is
// requeued under the at-least-once + dedup-by-block invariant, so a
// corrupted byte on the wire can never reach the merge. The length prefix
// is bounded (max_frame_payload) so a hostile or scrambled prefix cannot
// make a receiver buffer gigabytes.
//
// Lease and result payloads wrap the deterministic wire JSON
// (dist/wire.hpp round-job and partial messages) in a small fixed
// envelope (shard identity, attempt, round, wait status). The local pipe
// channel and the network carry the very same frames: a node relays them
// between the coordinator and its worker unchanged.
//
// frame_reader decodes incrementally — feed() any byte dribble the
// kernel hands you (short reads, EINTR-split reads, one byte at a time)
// and next() yields complete frames exactly as if they had arrived whole.
// frame_conn wraps a non-blocking socket with a frame_reader and a write
// buffer so single-threaded poll() loops on both ends can interleave many
// connections without ever blocking on one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pssp::dist {

// v1: hello/welcome handshake, lease/result envelopes, heartbeats.
inline constexpr std::uint32_t net_protocol_version = 1;

// A scrambled length prefix must not buffer unbounded memory.
inline constexpr std::uint32_t max_frame_payload = 64u * 1024u * 1024u;

enum class frame_type : std::uint8_t {
    hello = 1,      // worker -> coordinator: version, name, capabilities
    welcome = 2,    // coordinator -> worker: version, heartbeat interval
    lease = 3,      // coordinator -> worker: shard/attempt envelope + round job
    result = 4,     // worker -> coordinator: wait-status envelope + partial
    heartbeat = 5,  // worker -> coordinator: liveness (empty payload)
    shutdown = 6,   // coordinator -> worker: campaign over, exit cleanly
    error = 7,      // either direction: human-readable refusal, then close
};

[[nodiscard]] const char* to_string(frame_type type) noexcept;

struct frame {
    frame_type type = frame_type::error;
    std::string payload;
};

// One encoded frame, ready for the socket.
[[nodiscard]] std::string encode_frame(frame_type type,
                                       std::string_view payload);

// Incremental decoder. feed() bytes in any fragmentation; next() returns
// the next complete frame or nullopt. Throws std::runtime_error on an
// oversized length prefix or an integrity-hash mismatch — the connection
// is poisoned and must be closed.
class frame_reader {
  public:
    void feed(const char* data, std::size_t size) { buf_.append(data, size); }

    [[nodiscard]] std::optional<frame> next();

    // Bytes buffered but not yet decodable — nonzero at EOF means the
    // peer closed mid-frame.
    [[nodiscard]] std::size_t pending_bytes() const noexcept {
        return buf_.size();
    }

  private:
    std::string buf_;
};

// The error a blocking/polling receiver reports when the peer closes with
// a partial frame buffered (exact message pinned by tests).
[[nodiscard]] std::string closed_mid_frame_error(std::size_t pending_bytes);

// ---- Envelopes ----
//
// Fixed little-endian prefixes in front of the wire JSON payloads.

// lease payload = lease_envelope + round_job JSON (wire::round_job_to_json)
struct lease_envelope {
    std::uint32_t shard = 0;        // manifest slot this lease covers ...
    std::uint32_t shard_count = 0;  // ... of how many this round
    std::uint32_t attempt = 1;      // 1-based; requeues increment it
    std::uint64_t round = 0;        // the manifest's round (chaos coordinate)
};

// result payload = result_envelope + the worker's partial JSON. A worker
// writes wait_status 0; a node whose worker died holding the lease sends
// the worker's raw wait status and no JSON. The supervisor classifies
// from the wait status first, the JSON second, on either channel.
struct result_envelope {
    std::uint32_t shard = 0;
    std::uint32_t shard_count = 0;
    std::uint32_t attempt = 1;
    std::int32_t wait_status = 0;  // raw wait4 status of the compute child
};

[[nodiscard]] std::string encode_lease(const lease_envelope& env,
                                       std::string_view job_json);
// Throws std::runtime_error on a payload too short for the envelope.
[[nodiscard]] lease_envelope decode_lease(std::string_view payload,
                                          std::string_view* job_json);

[[nodiscard]] std::string encode_result(const result_envelope& env,
                                        std::string_view output);
[[nodiscard]] result_envelope decode_result(std::string_view payload,
                                            std::string_view* output);

// ---- Non-blocking connection state ----
//
// One socket plus its read/write buffering, driven by a poll() loop:
// read_frames() drains the socket into decoded frames, queue() appends an
// encoded frame to the write buffer, pump_writes() flushes as much as the
// socket accepts. All EINTR-retrying, EAGAIN-yielding.
class frame_conn {
  public:
    frame_conn() = default;
    explicit frame_conn(int fd) : fd_{fd} {}
    frame_conn(const frame_conn&) = delete;
    frame_conn& operator=(const frame_conn&) = delete;
    frame_conn(frame_conn&& other) noexcept;
    frame_conn& operator=(frame_conn&& other) noexcept;
    ~frame_conn() { close(); }

    [[nodiscard]] int fd() const noexcept { return fd_; }
    [[nodiscard]] bool open() const noexcept { return fd_ >= 0; }
    void close();

    enum class io_status : std::uint8_t {
        ok,      // socket still open, frames (possibly none) decoded
        closed,  // clean EOF with no partial frame buffered
        failed,  // read error, EOF mid-frame, or protocol (hash/size) error
    };

    // Drains the socket until EAGAIN/EOF, appending decoded frames to
    // `out`. On `failed`, error() describes why (exact framing messages).
    [[nodiscard]] io_status read_frames(std::vector<frame>& out);

    // Appends one frame to the write buffer (does not write yet).
    void queue(frame_type type, std::string_view payload);

    // Flushes buffered writes until EAGAIN or done. Returns false on a
    // hard write error (error() says why).
    [[nodiscard]] bool pump_writes();

    [[nodiscard]] bool wants_write() const noexcept { return !wbuf_.empty(); }
    [[nodiscard]] const std::string& error() const noexcept { return error_; }

  private:
    int fd_ = -1;
    frame_reader reader_;
    std::string wbuf_;
    std::size_t woff_ = 0;
    std::string error_;
};

// ---- Handshake payload helpers (JSON bodies of hello / welcome) ----

struct hello_msg {
    std::uint32_t version = net_protocol_version;
    std::string name;          // worker's self-chosen identity
    std::uint64_t reconnects = 0;  // this worker's reconnect count so far
};

struct welcome_msg {
    std::uint32_t version = net_protocol_version;
    std::uint64_t heartbeat_ms = 250;  // worker must heartbeat this often
    std::uint64_t spec_digest = 0;     // campaign the coordinator serves
};

[[nodiscard]] std::string hello_to_json(const hello_msg& msg);
[[nodiscard]] hello_msg hello_from_json(std::string_view text);
[[nodiscard]] std::string welcome_to_json(const welcome_msg& msg);
[[nodiscard]] welcome_msg welcome_from_json(std::string_view text);

}  // namespace pssp::dist
