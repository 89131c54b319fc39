#include "src/crypto/lanes.hpp"

#include <cstring>
#include <stdexcept>

#define RASC_LANES_NS lanes_base
#include "src/crypto/lanes_kernels.hpp"

#if defined(RASC_CRYPTO_HAVE_AVX2)
#include "src/crypto/lanes_avx2.hpp"
#endif

// GNU vector extensions back the kSimd lane types; they need no ISA flags
// (the compiler lowers vector_size(16) to the baseline SIMD of the target,
// e.g. SSE2 on x86-64, and vector_size(32) to a pair of such ops unless the
// AVX2 TU takes over).
#if defined(RASC_CRYPTO_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define RASC_LANES_VEC 1
#endif

namespace rasc::crypto {

namespace lane_detail {

// Scalar lane finishers.  Deliberately compiled in this baseline TU only:
// the AVX2 TU calls back into these for divergent-length tails, so tails
// never execute AVX2 instructions.
void sha256_finish_scalar(std::uint32_t state[8], const std::uint8_t* p,
                          std::size_t rem, std::size_t total, std::uint8_t* out32) {
  while (rem >= 64) {
    detail::sha256_compress(state, p);
    p += 64;
    rem -= 64;
  }
  std::uint8_t tail[128];
  const std::size_t tail_blocks = rem < 56 ? 1 : 2;
  std::memset(tail, 0, tail_blocks * 64);
  if (rem > 0) std::memcpy(tail, p, rem);  // p may be null when rem == 0
  tail[rem] = 0x80;
  const std::uint64_t bits = static_cast<std::uint64_t>(total) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  for (std::size_t b = 0; b < tail_blocks; ++b) detail::sha256_compress(state, tail + 64 * b);
  for (int i = 0; i < 8; ++i) {
    support::put_u32_be(support::MutableByteView(out32 + 4 * i, 4), state[i]);
  }
}

void blake2s_finish_scalar(std::uint32_t h[8], const std::uint8_t* p, std::size_t rem,
                           std::size_t total, std::uint8_t* out32) {
  std::uint64_t t = static_cast<std::uint64_t>(total) - rem;
  while (rem > 64) {
    t += 64;
    detail::blake2s_compress(h, p, t, /*last=*/false);
    p += 64;
    rem -= 64;
  }
  std::uint8_t tail[64] = {};
  if (rem > 0) std::memcpy(tail, p, rem);  // p may be null when rem == 0
  detail::blake2s_compress(h, tail, total, /*last=*/true);
  for (int i = 0; i < 8; ++i) {
    support::put_u32_le(support::MutableByteView(out32 + 4 * i, 4), h[i]);
  }
}

}  // namespace lane_detail

namespace {

#if defined(RASC_LANES_VEC)
typedef std::uint32_t vu32x4 __attribute__((vector_size(16)));
typedef std::uint32_t vu32x8 __attribute__((vector_size(32)));
#endif

LaneBackend resolve_backend(LaneBackend backend) noexcept {
  if (backend == LaneBackend::kPortable) return LaneBackend::kPortable;
  return simd_compiled() ? LaneBackend::kSimd : LaneBackend::kPortable;
}

/// Run one pack of `count` (<= N) messages through the N-lane kernel for
/// the resolved backend.  `kind` must be a lanes_supported() kind.
template <std::size_t N>
void run_lanes(HashKind kind, LaneBackend resolved, const support::ByteView* msgs,
               const support::MutableByteView* outs, std::size_t count) {
  const bool sha = kind == HashKind::kSha256;
#if defined(RASC_LANES_VEC)
  if (resolved == LaneBackend::kSimd) {
    if constexpr (N == 8) {
#if defined(RASC_CRYPTO_HAVE_AVX2)
      if (lane_detail::avx2_runtime()) {
        if (sha) {
          lane_detail::sha256_lanes8_avx2(msgs, outs, count);
        } else {
          lane_detail::blake2s_lanes8_avx2(msgs, outs, count);
        }
        return;
      }
#endif
      if (sha) {
        lanes_base::sha256_digest_lanes<vu32x8>(msgs, outs, count);
      } else {
        lanes_base::blake2s_digest_lanes<vu32x8>(msgs, outs, count);
      }
      return;
    } else if constexpr (N == 4) {
      if (sha) {
        lanes_base::sha256_digest_lanes<vu32x4>(msgs, outs, count);
      } else {
        lanes_base::blake2s_digest_lanes<vu32x4>(msgs, outs, count);
      }
      return;
    }
    // N == 2: narrower than any SIMD kernel; fall through to portable.
  }
#endif
  if (sha) {
    lanes_base::sha256_digest_lanes<lanes_base::U32xN<N>>(msgs, outs, count);
  } else {
    lanes_base::blake2s_digest_lanes<lanes_base::U32xN<N>>(msgs, outs, count);
  }
}

void check_outs(HashKind kind, std::span<const support::ByteView> msgs,
                std::span<const support::MutableByteView> outs) {
  if (msgs.size() != outs.size()) {
    throw std::invalid_argument("lane digest: msgs/outs size mismatch");
  }
  const std::size_t want = hash_digest_size(kind);
  for (const auto& out : outs) {
    if (out.size() != want) {
      throw std::invalid_argument("lane digest: output view must be digest_size bytes");
    }
  }
}

}  // namespace

bool lanes_supported(HashKind kind) noexcept {
  return kind == HashKind::kSha256 || kind == HashKind::kBlake2s;
}

bool simd_compiled() noexcept {
#if defined(RASC_LANES_VEC)
  return true;
#else
  return false;
#endif
}

bool avx2_active() noexcept {
#if defined(RASC_CRYPTO_HAVE_AVX2)
  return lane_detail::avx2_runtime();
#else
  return false;
#endif
}

std::size_t preferred_lanes(LaneBackend backend) noexcept {
  // Portable packs 8-wide: the wider interleave both SLP-vectorizes better
  // and hides more of the dependency chain (measured on GCC 12 -O2, where
  // U32xN<8> BLAKE2s runs ~3.5x faster than U32xN<4>).  SIMD packs 8 only
  // when the AVX2 kernels can actually run; baseline vector codegen is
  // 128-bit, where 4 lanes avoid doubled register pressure.
  if (resolve_backend(backend) == LaneBackend::kSimd) return avx2_active() ? 8 : 4;
  return 8;
}

const char* lane_backend_name(LaneBackend backend) noexcept {
  if (resolve_backend(backend) == LaneBackend::kSimd) {
    return avx2_active() ? "avx2" : "simd";
  }
  return "portable";
}

template <std::size_t N>
LaneHasher<N>::LaneHasher(HashKind kind, LaneBackend backend)
    : kind_(kind), backend_(resolve_backend(backend)), digest_size_(hash_digest_size(kind)) {
  if (!lanes_supported(kind)) {
    throw std::invalid_argument("LaneHasher: no lane kernel for " + hash_name(kind));
  }
}

template <std::size_t N>
void LaneHasher<N>::digest(std::span<const support::ByteView> msgs,
                           std::span<const support::MutableByteView> outs) const {
  if (msgs.size() > N) {
    throw std::invalid_argument("LaneHasher: more messages than lanes");
  }
  check_outs(kind_, msgs, outs);
  if (msgs.empty()) return;
  run_lanes<N>(kind_, backend_, msgs.data(), outs.data(), msgs.size());
}

template class LaneHasher<2>;
template class LaneHasher<4>;
template class LaneHasher<8>;

void digest_many(HashKind kind, std::span<const support::ByteView> msgs,
                 std::span<const support::MutableByteView> outs, LaneBackend backend) {
  if (msgs.size() != outs.size()) {
    throw std::invalid_argument("digest_many: msgs/outs size mismatch");
  }
  if (!lanes_supported(kind)) {
    auto hasher = make_hash(kind);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      hash_oneshot_into(*hasher, msgs[i], outs[i]);
    }
    return;
  }
  check_outs(kind, msgs, outs);

  const LaneBackend resolved = resolve_backend(backend);
  const std::size_t width = preferred_lanes(resolved);
  std::size_t i = 0;
  const std::size_t n = msgs.size();
  while (n - i >= 2) {
    const std::size_t chunk = n - i < width ? n - i : width;
    if (chunk > 4) {
      run_lanes<8>(kind, resolved, msgs.data() + i, outs.data() + i, chunk);
    } else {
      run_lanes<4>(kind, resolved, msgs.data() + i, outs.data() + i, chunk);
    }
    i += chunk;
  }
  if (i < n) {
    // Single trailing message: the scalar path beats a mostly-idle pack.
    auto hasher = make_hash(kind);
    hash_oneshot_into(*hasher, msgs[i], outs[i]);
  }
}

}  // namespace rasc::crypto
