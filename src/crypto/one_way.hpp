// One-way function F for P-SSP-OWF (Algorithm 3).
//
// The stack canary is C = F(ret || n, C): a randomized MAC over the return
// address under the TLS canary C as key, with nonce n (the timestamp
// counter). The paper instantiates F with AES-NI because the 128-bit block
// conveniently holds nonce||ret; it also names SHA-1 as an alternative.
// Both instantiations are provided behind one interface so benches can
// compare them and tests can check the shared contract:
//   * determinism:  same (key, ret, nonce) -> same canary;
//   * key binding:  different key -> different canary (w.h.p.);
//   * frame binding: different ret or nonce -> different canary (w.h.p.).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace pssp::crypto {

enum class owf_kind : std::uint8_t {
    aes128,  // AES-NI analog: canary = low 64 bits of AES_C(nonce || ret)
    sha1,    // hash analog:   canary = first 64 bits of SHA1(key || nonce || ret)
};

class one_way_function {
  public:
    virtual ~one_way_function() = default;

    // Evaluates F keyed by (key_lo, key_hi) over (ret, nonce); returns the
    // 64-bit stack canary. Must be deterministic.
    [[nodiscard]] virtual std::uint64_t evaluate(std::uint64_t key_lo,
                                                 std::uint64_t key_hi,
                                                 std::uint64_t ret,
                                                 std::uint64_t nonce) const = 0;

    // Full 128-bit output where available (AES); the high half is zero for
    // SHA-1 truncated output. P-SSP-OWF stores the full ciphertext (Code 8
    // uses movdqu of xmm15), so the 128-bit form is what lands on the stack.
    struct output128 {
        std::uint64_t lo;
        std::uint64_t hi;
        friend bool operator==(const output128&, const output128&) = default;
    };
    [[nodiscard]] virtual output128 evaluate128(std::uint64_t key_lo,
                                                std::uint64_t key_hi,
                                                std::uint64_t ret,
                                                std::uint64_t nonce) const = 0;

    [[nodiscard]] virtual owf_kind kind() const noexcept = 0;
    [[nodiscard]] virtual std::string name() const = 0;
};

// Factory for the chosen instantiation.
[[nodiscard]] std::unique_ptr<one_way_function> make_owf(owf_kind kind);

// The SHA-1 instantiation's evaluate128 as a plain function, for callers
// that must not allocate (the SHA1_OWF_128 native helper).
[[nodiscard]] one_way_function::output128 sha1_owf128(std::uint64_t key_lo,
                                                      std::uint64_t key_hi,
                                                      std::uint64_t ret,
                                                      std::uint64_t nonce) noexcept;

}  // namespace pssp::crypto
