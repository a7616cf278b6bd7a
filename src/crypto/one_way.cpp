#include "crypto/one_way.hpp"

#include <array>

#include "crypto/aes128.hpp"
#include "crypto/sha1.hpp"
#include "util/bytes.hpp"

namespace pssp::crypto {

namespace {

class aes_owf final : public one_way_function {
  public:
    std::uint64_t evaluate(std::uint64_t key_lo, std::uint64_t key_hi, std::uint64_t ret,
                           std::uint64_t nonce) const override {
        return evaluate128(key_lo, key_hi, ret, nonce).lo;
    }

    output128 evaluate128(std::uint64_t key_lo, std::uint64_t key_hi, std::uint64_t ret,
                          std::uint64_t nonce) const override {
        // Code 8 packs the nonce (rdtsc result) into the low quadword of
        // xmm15 and the return address into the high quadword, then
        // encrypts under the key assembled from r12/r13.
        const aes128 cipher{key_lo, key_hi};
        const auto ct = cipher.encrypt({nonce, ret});
        return {ct.lo, ct.hi};
    }

    owf_kind kind() const noexcept override { return owf_kind::aes128; }
    std::string name() const override { return "AES-128 (AES-NI analog)"; }
};

class sha1_owf final : public one_way_function {
  public:
    std::uint64_t evaluate(std::uint64_t key_lo, std::uint64_t key_hi, std::uint64_t ret,
                           std::uint64_t nonce) const override {
        return evaluate128(key_lo, key_hi, ret, nonce).lo;
    }

    output128 evaluate128(std::uint64_t key_lo, std::uint64_t key_hi, std::uint64_t ret,
                          std::uint64_t nonce) const override {
        return sha1_owf128(key_lo, key_hi, ret, nonce);
    }

    owf_kind kind() const noexcept override { return owf_kind::sha1; }
    std::string name() const override { return "SHA-1 (truncated keyed hash)"; }
};

}  // namespace

one_way_function::output128 sha1_owf128(std::uint64_t key_lo, std::uint64_t key_hi,
                                        std::uint64_t ret, std::uint64_t nonce) noexcept {
    // Keyed-hash form: H(key || nonce || ret). A secret-prefix MAC's
    // extension weakness does not apply — the attacker never controls a
    // suffix of the hashed message, and the output is truncated.
    std::array<std::uint8_t, 32> msg{};
    util::store_le64(std::span{msg}.subspan(0, 8), key_lo);
    util::store_le64(std::span{msg}.subspan(8, 8), key_hi);
    util::store_le64(std::span{msg}.subspan(16, 8), nonce);
    util::store_le64(std::span{msg}.subspan(24, 8), ret);
    const auto digest = sha1::digest(msg);
    return {util::load_le64(std::span{digest}.subspan(0, 8)),
            util::load_le64(std::span{digest}.subspan(8, 8))};
}

std::unique_ptr<one_way_function> make_owf(owf_kind kind) {
    switch (kind) {
        case owf_kind::aes128:
            return std::make_unique<aes_owf>();
        case owf_kind::sha1:
            return std::make_unique<sha1_owf>();
    }
    return std::make_unique<aes_owf>();
}

}  // namespace pssp::crypto
