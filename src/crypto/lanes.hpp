#pragma once
/// \file lanes.hpp
/// Multi-buffer ("multi-lane") hashing: N independent SHA-256 or BLAKE2s
/// states advanced in lockstep so the compression arithmetic runs
/// element-wise over vectors of lane words.  Independent per-block and
/// per-device digests — the dominant cost in every measurement bench —
/// batch naturally into lanes because there is no data dependency between
/// messages.
///
/// Guarantee: every lane digest is byte-identical to the scalar streaming
/// path (`hash_oneshot`).  Lockstep kernels share the compression constants
/// with the scalar cores, and any lane whose message length diverges from
/// the pack is finished on the very same scalar compression functions
/// (sha256_core.hpp / blake2s_core.hpp), so identity is structural.
///
/// Backends:
///  - kPortable: plain-array interleaving (`U32xN`) that auto-vectorizes
///    under `-O2`; works on any C++20 compiler, no ISA flags.
///  - kSimd: GNU vector-extension kernels (SSE2-class codegen at baseline
///    flags) plus an AVX2 8-lane translation unit compiled with `-mavx2`
///    when the toolchain supports it, selected at run time via CPUID.
///  - kAuto: kSimd when compiled in, else kPortable.

#include <cstddef>
#include <span>

#include "src/crypto/hash.hpp"
#include "src/support/bytes.hpp"

namespace rasc::crypto {

/// Kernel selection for the lane API.  kAuto resolves to the widest
/// implementation compiled into this binary and usable on this CPU.
enum class LaneBackend {
  kAuto,
  kPortable,
  kSimd,
};

/// True for the hash kinds with lane kernels (SHA-256, BLAKE2s).  Other
/// kinds fall back to the scalar streaming path inside digest_many().
bool lanes_supported(HashKind kind) noexcept;

/// True when a SIMD lane kernel is compiled in (vector extensions).
bool simd_compiled() noexcept;

/// True when the AVX2 8-lane translation unit is compiled in AND the CPU
/// reports AVX2 support at run time.
bool avx2_active() noexcept;

/// Lane width digest_many() packs with for the given backend: 8 when the
/// AVX2 path is active, 4 otherwise.
std::size_t preferred_lanes(LaneBackend backend = LaneBackend::kAuto) noexcept;

/// Human-readable backend name for bench labels: "avx2", "simd" (baseline
/// vector codegen) or "portable".
const char* lane_backend_name(LaneBackend backend = LaneBackend::kAuto) noexcept;

/// N-lane lockstep hasher.  One call digests up to N independent messages;
/// lanes may have differing lengths (divergent lanes finish on the scalar
/// core).  Stateless between calls — safe to share by value across threads.
template <std::size_t N>
class LaneHasher {
 public:
  static_assert(N == 2 || N == 4 || N == 8, "supported lane widths: 2, 4, 8");
  static constexpr std::size_t kLanes = N;

  explicit LaneHasher(HashKind kind, LaneBackend backend = LaneBackend::kAuto);

  HashKind kind() const noexcept { return kind_; }
  /// Backend the constructor resolved kAuto to (never kAuto itself).
  LaneBackend backend() const noexcept { return backend_; }
  std::size_t digest_size() const noexcept { return digest_size_; }

  /// Digest msgs[i] into outs[i] for i < msgs.size() <= N.  Each out view
  /// must be exactly digest_size() bytes.  Throws std::invalid_argument on
  /// size mismatches or an unsupported kind.
  void digest(std::span<const support::ByteView> msgs,
              std::span<const support::MutableByteView> outs) const;

 private:
  HashKind kind_;
  LaneBackend backend_;
  std::size_t digest_size_;
};

/// Digest any number of independent messages, packing preferred_lanes()-
/// wide waves (scalar for a trailing single message).  Exception: SHA-256
/// under kAuto on a host where sha256_hardware_active() holds goes in pairs
/// through the 2-way SHA-NI kernel instead, which beats every lane pack
/// there.  msgs and outs must have equal sizes; outs[i] must be exactly
/// hash_digest_size(kind) bytes.  Kinds without lane kernels are digested
/// scalar, so callers need no capability check.
void digest_many(HashKind kind, std::span<const support::ByteView> msgs,
                 std::span<const support::MutableByteView> outs,
                 LaneBackend backend = LaneBackend::kAuto);

extern template class LaneHasher<2>;
extern template class LaneHasher<4>;
extern template class LaneHasher<8>;

}  // namespace rasc::crypto
