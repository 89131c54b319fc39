/// \file sha256_avx512.cpp
/// A 16-lane SHA-256 block kernel on AVX-512 (vprord rotates, vpternlogd
/// for the three-input XOR, Ch and Maj), compiled with -mavx512f
/// -mavx512bw.  Lives in its own TU so no AVX-512-compiled symbol can be
/// ODR-merged into the baseline path: it takes only the round constants
/// (pure data) from sha256_core.hpp, and every function it defines is
/// either declared in sha256_avx512.hpp (the kernel called only after
/// avx512_runtime()) or has internal linkage.  Padding and tails are
/// lanes.cpp's: it finishes each stream on a Sha256 resumed from the
/// chaining value this kernel returns.

#include "src/crypto/sha256_avx512.hpp"

// GCC 12 flags the deliberately undefined pass-through operand inside
// several AVX-512 intrinsics (_mm512_undefined_epi32) as uninitialized;
// the warning's location is the header, so the pragma covers it alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <utility>

#include "src/crypto/sha256_core.hpp"

namespace rasc::crypto::detail {

namespace {

/// Sixteen streams in lockstep: the working variables a..h (slot i holds
/// role (i + T) mod 8 in round T, so no round moves a register) and the
/// message schedule as a ring of sixteen words, one vector per word.
struct Lanes {
  __m512i v[8];
  __m512i w[16];
};

[[gnu::always_inline]] inline __m512i add(__m512i a, __m512i b) {
  return _mm512_add_epi32(a, b);
}

[[gnu::always_inline]] inline __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

[[gnu::always_inline]] inline __m512i big_sigma0(__m512i a) {
  return xor3(_mm512_ror_epi32(a, 2), _mm512_ror_epi32(a, 13), _mm512_ror_epi32(a, 22));
}

[[gnu::always_inline]] inline __m512i big_sigma1(__m512i e) {
  return xor3(_mm512_ror_epi32(e, 6), _mm512_ror_epi32(e, 11), _mm512_ror_epi32(e, 25));
}

[[gnu::always_inline]] inline __m512i small_sigma0(__m512i w) {
  return xor3(_mm512_ror_epi32(w, 7), _mm512_ror_epi32(w, 18), _mm512_srli_epi32(w, 3));
}

[[gnu::always_inline]] inline __m512i small_sigma1(__m512i w) {
  return xor3(_mm512_ror_epi32(w, 17), _mm512_ror_epi32(w, 19), _mm512_srli_epi32(w, 10));
}

/// Load one 64-byte block per stream, byte-swap its big-endian words and
/// transpose the 16x16 word matrix so w[t] holds word t of every stream:
/// 32-bit then 64-bit unpacks within 128-bit lanes, then two rounds of
/// 128-bit lane shuffles.
[[gnu::always_inline]] inline void load_schedule(Lanes& s, const std::uint8_t* const* blocks,
                                                 std::size_t offset, __m512i bswap) {
  __m512i r[16];
  __m512i t[16];
  for (int l = 0; l < 16; ++l) {
    r[l] = _mm512_shuffle_epi8(_mm512_loadu_si512(blocks[l] + offset), bswap);
  }
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  // r[4g + j], 128-bit lane k: word 4k + j of streams 4g..4g+3.
  for (int g = 0; g < 16; g += 4) {
    r[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
    r[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
    r[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
    r[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  for (int j = 0; j < 4; ++j) {
    t[j] = _mm512_shuffle_i32x4(r[j], r[4 + j], 0x44);
    t[4 + j] = _mm512_shuffle_i32x4(r[j], r[4 + j], 0xEE);
    t[8 + j] = _mm512_shuffle_i32x4(r[8 + j], r[12 + j], 0x44);
    t[12 + j] = _mm512_shuffle_i32x4(r[8 + j], r[12 + j], 0xEE);
  }
  for (int j = 0; j < 4; ++j) {
    s.w[j] = _mm512_shuffle_i32x4(t[j], t[8 + j], 0x88);
    s.w[4 + j] = _mm512_shuffle_i32x4(t[j], t[8 + j], 0xDD);
    s.w[8 + j] = _mm512_shuffle_i32x4(t[4 + j], t[12 + j], 0x88);
    s.w[12 + j] = _mm512_shuffle_i32x4(t[4 + j], t[12 + j], 0xDD);
  }
}

/// Round T: extend the schedule ring for T >= 16, then one FIPS 180-4
/// round on all sixteen streams.  Only d and h are written: d becomes the
/// next round's e, h its a.
template <int T>
[[gnu::always_inline]] inline void sha_round(Lanes& s) {
  __m512i& w = s.w[T & 15];
  if constexpr (T >= 16) {
    w = add(add(w, small_sigma0(s.w[(T + 1) & 15])),
            add(s.w[(T + 9) & 15], small_sigma1(s.w[(T + 14) & 15])));
  }
  const __m512i a = s.v[(0 - T) & 7];
  const __m512i b = s.v[(1 - T) & 7];
  const __m512i c = s.v[(2 - T) & 7];
  __m512i& d = s.v[(3 - T) & 7];
  const __m512i e = s.v[(4 - T) & 7];
  const __m512i f = s.v[(5 - T) & 7];
  const __m512i g = s.v[(6 - T) & 7];
  __m512i& h = s.v[(7 - T) & 7];
  const __m512i t1 =
      add(add(h, big_sigma1(e)),
          add(_mm512_ternarylogic_epi32(e, f, g, 0xCA),  // Ch: e ? f : g
              add(w, _mm512_set1_epi32(static_cast<int>(kSha256K[T])))));
  d = add(d, t1);
  h = add(t1, add(big_sigma0(a), _mm512_ternarylogic_epi32(a, b, c, 0xE8)));  // Maj
}

template <int... T>
[[gnu::always_inline]] inline void compress(Lanes& s, std::integer_sequence<int, T...>) {
  __m512i start[8];
  for (int i = 0; i < 8; ++i) start[i] = s.v[i];
  (sha_round<T>(s), ...);
  for (int i = 0; i < 8; ++i) s.v[i] = add(s.v[i], start[i]);
}

using Rounds = std::make_integer_sequence<int, 64>;

}  // namespace

bool avx512_runtime() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}

void sha256_blocks_avx512_x16(std::uint32_t state[8][16], const std::uint8_t* const blocks[16],
                              std::size_t nblocks) noexcept {
  const __m512i bswap = _mm512_broadcast_i32x4(
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL));
  Lanes s;
  for (int i = 0; i < 8; ++i) s.v[i] = _mm512_loadu_si512(state[i]);
  for (std::size_t b = 0; b < nblocks; ++b) {
    load_schedule(s, blocks, 64 * b, bswap);
    compress(s, Rounds{});
  }
  for (int i = 0; i < 8; ++i) _mm512_storeu_si512(state[i], s.v[i]);
}

}  // namespace rasc::crypto::detail
