/// \file sha256_shani.cpp
/// SHA-256 block kernels on the x86 SHA extensions (sha256rnds2,
/// sha256msg1, sha256msg2), compiled with -msha -msse4.1.  Lives in its own
/// TU so no SHA/SSE4.1-compiled symbol can be ODR-merged into the baseline
/// path: it takes only the round constants (pure data) from
/// sha256_core.hpp, and every function it defines is either declared in
/// sha256_shani.hpp (called only after sha_ni_runtime()) or has internal
/// linkage.  The dispatcher in sha256.cpp decides which kernel runs.

#include "src/crypto/sha256_shani.hpp"

#include <immintrin.h>

#include <utility>

#include "src/crypto/sha256_core.hpp"

namespace rasc::crypto::detail {

namespace {

/// One stream in the layout sha256rnds2 works on: the state split into
/// ABEF and CDGH halves (highest lane first), plus the message schedule as
/// a ring of four 4-word vectors.
struct Stream {
  __m128i abef;
  __m128i cdgh;
  __m128i w[4];
};

/// Byte-swaps each 32-bit lane: message words are big-endian.
[[gnu::always_inline]] inline __m128i bswap_mask() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
}

[[gnu::always_inline]] inline __m128i load(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

[[gnu::always_inline]] inline void load_state(Stream& s, const std::uint32_t state[8]) {
  const __m128i cdab = _mm_shuffle_epi32(load(state), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(load(state + 4), 0x1B);
  s.abef = _mm_alignr_epi8(cdab, efgh, 8);
  s.cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

[[gnu::always_inline]] inline void store_state(const Stream& s, std::uint32_t state[8]) {
  const __m128i feba = _mm_shuffle_epi32(s.abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(s.cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

/// Rounds 4Q..4Q+3 of the block at `p`.  Schedule vector w[Q % 4] holds
/// W[4Q..4Q+3]: loaded for Q < 4, then completed ahead of use by
/// sha256msg1 (three quads early) and sha256msg2 (one quad early).
template <int Q>
[[gnu::always_inline]] inline void quad(Stream& s, const std::uint8_t* p, __m128i mask) {
  __m128i& cur = s.w[Q & 3];
  if constexpr (Q < 4) cur = _mm_shuffle_epi8(load(p + 16 * Q), mask);
  __m128i wk = _mm_add_epi32(cur, load(kSha256K + 4 * Q));
  s.cdgh = _mm_sha256rnds2_epu32(s.cdgh, s.abef, wk);
  if constexpr (Q >= 3 && Q <= 14) {
    __m128i& next = s.w[(Q + 1) & 3];
    next = _mm_add_epi32(next, _mm_alignr_epi8(cur, s.w[(Q + 3) & 3], 4));
    next = _mm_sha256msg2_epu32(next, cur);
  }
  wk = _mm_shuffle_epi32(wk, 0x0E);
  s.abef = _mm_sha256rnds2_epu32(s.abef, s.cdgh, wk);
  if constexpr (Q >= 1 && Q <= 12) {
    __m128i& prev = s.w[(Q + 3) & 3];
    prev = _mm_sha256msg1_epu32(prev, cur);
  }
}

template <int... Q>
[[gnu::always_inline]] inline void compress(Stream& s, const std::uint8_t* p, __m128i mask,
                                            std::integer_sequence<int, Q...>) {
  const __m128i abef = s.abef;
  const __m128i cdgh = s.cdgh;
  (quad<Q>(s, p, mask), ...);
  s.abef = _mm_add_epi32(s.abef, abef);
  s.cdgh = _mm_add_epi32(s.cdgh, cdgh);
}

/// Both streams' quads alternate, so the out-of-order core always has an
/// independent sha256rnds2 chain to run while the other one waits.
template <int... Q>
[[gnu::always_inline]] inline void compress_x2(Stream& a, Stream& b, const std::uint8_t* pa,
                                               const std::uint8_t* pb, __m128i mask,
                                               std::integer_sequence<int, Q...>) {
  const __m128i a_abef = a.abef;
  const __m128i a_cdgh = a.cdgh;
  const __m128i b_abef = b.abef;
  const __m128i b_cdgh = b.cdgh;
  ((quad<Q>(a, pa, mask), quad<Q>(b, pb, mask)), ...);
  a.abef = _mm_add_epi32(a.abef, a_abef);
  a.cdgh = _mm_add_epi32(a.cdgh, a_cdgh);
  b.abef = _mm_add_epi32(b.abef, b_abef);
  b.cdgh = _mm_add_epi32(b.cdgh, b_cdgh);
}

using Quads = std::make_integer_sequence<int, 16>;

}  // namespace

bool sha_ni_runtime() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* p,
                         std::size_t nblocks) noexcept {
  const __m128i mask = bswap_mask();
  Stream s{};
  load_state(s, state);
  for (; nblocks > 0; --nblocks, p += 64) compress(s, p, mask, Quads{});
  store_state(s, state);
}

void sha256_blocks_shani_x2(std::uint32_t state_a[8], std::uint32_t state_b[8],
                            const std::uint8_t* pa, const std::uint8_t* pb,
                            std::size_t nblocks) noexcept {
  const __m128i mask = bswap_mask();
  Stream a{};
  Stream b{};
  load_state(a, state_a);
  load_state(b, state_b);
  for (; nblocks > 0; --nblocks, pa += 64, pb += 64) {
    compress_x2(a, b, pa, pb, mask, Quads{});
  }
  store_state(a, state_a);
  store_state(b, state_b);
}

}  // namespace rasc::crypto::detail
