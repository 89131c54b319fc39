#pragma once
/// \file lanes.hpp
/// Multi-buffer ("multi-lane") hashing: independent SHA-256 or BLAKE2s
/// messages digested together, so the compression arithmetic runs
/// element-wise over vectors of lane words (or, with SHA-NI, as two
/// interleaved hardware streams).  Independent per-block and per-device
/// digests — the dominant cost in every measurement bench — batch
/// naturally because there is no data dependency between messages.
///
/// Guarantee: every digest is byte-identical to the scalar streaming
/// path (`hash_oneshot`).  Lockstep kernels share the compression
/// constants with the scalar cores, and any lane whose message length
/// diverges from the pack is finished on the very same scalar compression
/// functions (sha256_core.hpp / blake2s_core.hpp), so identity is
/// structural.
///
/// One kernel per hash runs on a given host, fixed by the build and CPUID:
///  - SHA-256: the SHA-NI pairs when active, else the AVX2 8-lane kernel,
///    else the portable 4-lane pack (`U32xN<4>`);
///  - BLAKE2s: the AVX2 8-lane kernel when active, else the 8-lane GNU
///    vector pack compiled at baseline flags.

#include <cstddef>
#include <span>

#include "src/crypto/hash.hpp"
#include "src/support/bytes.hpp"

namespace rasc::crypto {

/// True for the hash kinds with lane kernels (SHA-256, BLAKE2s).  Other
/// kinds are digested scalar inside digest_many().
bool lanes_supported(HashKind kind) noexcept;

/// The kernel digest_many() runs for `kind` on this host, for bench
/// labels: "sha-ni", "avx2", "portable" or "vector"; "scalar" for kinds
/// without lane kernels.
const char* lane_kernel_name(HashKind kind) noexcept;

/// Digest any number of independent messages: every pack of 2 up to the
/// active kernel's width goes to that kernel, a single trailing message to
/// a scalar hash on the stack.  msgs and outs must have equal sizes and
/// outs[i] must be exactly hash_digest_size(kind) bytes, else
/// std::invalid_argument.  Kinds without lane kernels are digested scalar,
/// so callers need no capability check.  Allocates nothing.
void digest_many(HashKind kind, std::span<const support::ByteView> msgs,
                 std::span<const support::MutableByteView> outs);

namespace lane_detail {

/// One multi-buffer kernel: digests msgs[i] into outs[i] for
/// 1 <= count <= width, with the contract of digest_many().
struct LaneKernel {
  const char* name;
  std::size_t width;
  void (*digest)(const support::ByteView* msgs, const support::MutableByteView* outs,
                 std::size_t count);
};

/// Every kernel for `kind` compiled into this build that this CPU can run:
/// the one digest_many() runs first, the baseline pack last; empty for
/// kinds without lane kernels.  The identity tests and the lanes bench
/// reach every kernel through it.
std::span<const LaneKernel> runnable_kernels(HashKind kind) noexcept;

}  // namespace lane_detail

}  // namespace rasc::crypto
