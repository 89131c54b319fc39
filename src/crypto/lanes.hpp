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
/// The kernels are fixed by the build and CPUID:
///  - SHA-256: the AVX-512 16-lane kernel, when active, takes every full
///    pack of 16; the rest goes to the SHA-NI pairs when active, else the
///    AVX2 8-lane kernel, else the portable 4-lane pack (`U32xN<4>`);
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

/// The first kernel digest_many() runs for `kind` on this host, for bench
/// labels: "avx512", "sha-ni", "avx2", "portable" or "vector"; "scalar"
/// for kinds without lane kernels.
const char* lane_kernel_name(HashKind kind) noexcept;

/// Digest any number of independent messages: each runnable kernel in
/// turn takes every pack of at least its min_pack messages (up to its
/// width) that the kernels before it left, and a single trailing message
/// goes to a scalar hash on the stack.  A batch of at least
/// lane_detail::kSplitSize messages is cut into parts of kSplitPart that
/// the calling thread and free helper threads digest side by side (see
/// lane_detail::helper_count); the digests are the same either way.
/// msgs and outs must have equal sizes and outs[i] must be exactly
/// hash_digest_size(kind) bytes, else std::invalid_argument.  Kinds
/// without lane kernels are digested scalar, so callers need no capability
/// check.  Allocates nothing, except that the first split starts the
/// helpers.  Safe to call from any number of threads at once.
void digest_many(HashKind kind, std::span<const support::ByteView> msgs,
                 std::span<const support::MutableByteView> outs);

namespace lane_detail {

/// The smallest batch digest_many splits across cores.  On a 4-vCPU
/// AVX-512 + SHA-NI Xeon with 3 helpers, 128 x 4 KiB take 190 us serially
/// and 75 us split, while 128 x 64 B take ~2 us longer split (15-17 vs
/// 17-19 us) and gain only from ~192; DESIGN §13 has the rows.
inline constexpr std::size_t kSplitSize = 128;

/// The messages a split batch hands out at a time: two full AVX-512
/// packs, and a multiple of every kernel's width, so each part is packed
/// as the whole batch would be.
inline constexpr std::size_t kSplitPart = 32;

/// Helper threads a split batch may use: the size of the CPU affinity set
/// the process started with, minus one.  They start at the first split,
/// run on that set whatever the splitting thread's own set is by then, and
/// stop at exit.  0 on one allowed CPU, where nothing splits.
std::size_t helper_count() noexcept;

/// One multi-buffer kernel: digests msgs[i] into outs[i] for
/// 1 <= count <= width, with the contract of digest_many().
struct LaneKernel {
  const char* name;
  std::size_t width;
  /// The smallest pack digest_many() hands it: `width` for a kernel that
  /// costs a full pack whatever the count, else 2.
  std::size_t min_pack;
  void (*digest)(const support::ByteView* msgs, const support::MutableByteView* outs,
                 std::size_t count);
};

/// Every kernel for `kind` compiled into this build that this CPU can run,
/// in the order digest_many() offers them packs, the baseline pack last;
/// empty for kinds without lane kernels.  The identity tests and the
/// lanes bench reach every kernel through it.
std::span<const LaneKernel> runnable_kernels(HashKind kind) noexcept;

/// True when the AVX-512 SHA-256 unit is compiled in (x86 toolchain that
/// accepts -mavx512f -mavx512bw, RASC_ENABLE_SIMD=ON).
bool sha256_avx512_compiled() noexcept;

}  // namespace lane_detail

}  // namespace rasc::crypto
