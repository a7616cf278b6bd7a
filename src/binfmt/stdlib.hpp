// The libc analog: string routines, fork, __stack_chk_fail and the AES-NI
// helper, in both deployment flavors.
//
//   * dynamic_glibc — string routines and the stack-check failure path are
//     host-native handlers behind PLT slots. This is the configuration the
//     P-SSP runtime later interposes on (the LD_PRELOAD analog), and it is
//     why instrumented dynamically linked binaries show ZERO code expansion
//     in Table II.
//   * static_glibc — everything is VM code embedded in .text, so a binary
//     rewriter that needs a P-SSP-aware __stack_chk_fail or fork must
//     append a code section (Section V-D; Table II's 2.78%).
//
// AES_ENCRYPT_128 is native in both modes: it models the AES-NI *hardware*
// path of P-SSP-OWF, not library code (DESIGN.md, substitutions table).
// Its cycle price is charged through the VM cost model.
#pragma once

#include "binfmt/image.hpp"

namespace pssp::binfmt {

// Registers the standard library into `img` for the given mode. Call once
// per image, after the application functions are added (layout places libc
// after app code, as a static link would).
void add_standard_library(image& img, link_mode mode);

// Names used throughout (kept verbatim from the paper / glibc).
inline constexpr const char* sym_stack_chk_fail = "__stack_chk_fail";
inline constexpr const char* sym_fortify_fail = "__GI__fortify_fail";
inline constexpr const char* sym_aes_encrypt = "AES_ENCRYPT_128";
inline constexpr const char* sym_sha1_owf = "SHA1_OWF_128";
inline constexpr const char* sym_fork = "fork";
inline constexpr const char* sym_strcpy = "strcpy";
inline constexpr const char* sym_memcpy = "memcpy";
inline constexpr const char* sym_memset = "memset";
inline constexpr const char* sym_strlen = "strlen";

// Individual native handlers, exposed so the P-SSP runtime can re-use the
// default behavior when composing its interposed versions.
namespace native {

// Default glibc behavior: a called __stack_chk_fail unconditionally aborts
// (a stack_smash trap at the call site).
vm::native_status stack_chk_fail_abort(vm::machine& m) noexcept;

// AES-NI analog: xmm15 <- AES-128-Encrypt(key = xmm1, block = xmm15).
vm::native_status aes_encrypt_128(vm::machine& m) noexcept;

// The SHA-1 instantiation of F for the OWF ablation: same register
// contract as aes_encrypt_128 but costed as *software* hashing — there is
// no SHA hardware in the modeled CPU, making the paper's "prohibitively
// expensive without hardware support" remark measurable.
vm::native_status sha1_owf_128(vm::machine& m) noexcept;

// glibc string routines. Each moves whole runs of bytes but behaves like a
// one-byte-at-a-time loop: same bytes written, same pages dirtied, and a
// segfault at the first unmapped byte, before any cycle charge or rax write.
vm::native_status strcpy_impl(vm::machine& m) noexcept;
vm::native_status memcpy_impl(vm::machine& m) noexcept;
vm::native_status memset_impl(vm::machine& m) noexcept;
vm::native_status strlen_impl(vm::machine& m) noexcept;

}  // namespace native

}  // namespace pssp::binfmt
