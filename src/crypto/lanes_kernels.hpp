#pragma once
/// \file lanes_kernels.hpp
/// Lockstep lane kernels, templated over a vector-of-uint32 type V.  V only
/// needs element subscripting and element-wise `+ ^ & | ~ << >>`; both the
/// portable `U32xN` struct and GNU vector-extension types qualify, so one
/// kernel body serves every lane pack.
///
/// ODR note: this header is included by translation units compiled with
/// different ISA flags (lanes.cpp at baseline, lanes_avx2.cpp with -mavx2).
/// Everything here lives in a per-TU namespace chosen via RASC_LANES_NS so
/// the linker can never substitute an AVX2-compiled instantiation into the
/// baseline dispatch path.  The only cross-TU symbols are the constexpr
/// round-constant arrays (pure data) and the out-of-line scalar finishers
/// (detail::sha256_finish_portable in sha256.cpp, blake2s_finish_scalar in
/// lanes.cpp), each defined exactly once with baseline codegen so
/// divergent-length tails never execute AVX2 instructions.

#ifndef RASC_LANES_NS
#error "define RASC_LANES_NS before including lanes_kernels.hpp"
#endif

#include <cstdint>
#include <cstring>

#include "src/crypto/blake2s_core.hpp"
#include "src/crypto/sha256_core.hpp"
#include "src/support/bytes.hpp"

namespace rasc::crypto::lane_detail {

/// Finish one BLAKE2s lane on the scalar core: consume the `rem` bytes at
/// `p` (any remaining full blocks plus the tail) and write the
/// little-endian digest; `total` is the full message length.  SHA-256
/// lanes finish on detail::sha256_finish_portable (same contract,
/// big-endian output).  Defined in lanes.cpp.
void blake2s_finish_scalar(std::uint32_t h[8], const std::uint8_t* p,
                           std::size_t rem, std::size_t total, std::uint8_t* out32);

/// The AVX2 8-lane TU (lanes_avx2.cpp, compiled with -mavx2 and linked
/// only where CMake defines RASC_CRYPTO_HAVE_AVX2).  avx2_runtime() says
/// whether the CPU reports AVX2; the kernels may run only when it holds.
bool avx2_runtime() noexcept;
void sha256_lanes8_avx2(const support::ByteView* msgs,
                        const support::MutableByteView* outs, std::size_t count);
void blake2s_lanes8_avx2(const support::ByteView* msgs,
                         const support::MutableByteView* outs, std::size_t count);

}  // namespace rasc::crypto::lane_detail

namespace rasc::crypto::RASC_LANES_NS {

/// Portable lane vector: plain array with element-wise operators written as
/// fixed-trip loops, which GCC/Clang auto-vectorize at -O2 (and which still
/// buy instruction-level parallelism on compilers that don't).
template <std::size_t N>
struct alignas(sizeof(std::uint32_t) * N >= 16 ? 16 : sizeof(std::uint32_t) * N) U32xN {
  std::uint32_t v[N];

  std::uint32_t& operator[](std::size_t i) { return v[i]; }
  const std::uint32_t& operator[](std::size_t i) const { return v[i]; }

  friend U32xN operator+(U32xN a, U32xN b) {
    U32xN r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend U32xN operator^(U32xN a, U32xN b) {
    U32xN r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] ^ b.v[i];
    return r;
  }
  friend U32xN operator&(U32xN a, U32xN b) {
    U32xN r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] & b.v[i];
    return r;
  }
  friend U32xN operator|(U32xN a, U32xN b) {
    U32xN r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] | b.v[i];
    return r;
  }
  friend U32xN operator~(U32xN a) {
    U32xN r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = ~a.v[i];
    return r;
  }
  friend U32xN operator>>(U32xN a, int n) {
    U32xN r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] >> n;
    return r;
  }
  friend U32xN operator<<(U32xN a, int n) {
    U32xN r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] << n;
    return r;
  }
  U32xN& operator^=(U32xN b) { return *this = *this ^ b; }
};

template <class V>
inline constexpr std::size_t kLaneCount = sizeof(V) / sizeof(std::uint32_t);

template <class V>
inline V broadcast(std::uint32_t x) {
  V r{};
  for (std::size_t l = 0; l < kLaneCount<V>; ++l) r[l] = x;
  return r;
}

template <class V>
inline V vrotr(V x, int n) {
  return (x >> n) | (x << (32 - n));
}

// Local byte loads/stores (not the support:: inlines) so every instruction
// this TU executes under its own ISA flags is also *compiled* under them.
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}
inline void store_be32(std::uint8_t* p, std::uint32_t x) {
  p[0] = static_cast<std::uint8_t>(x >> 24);
  p[1] = static_cast<std::uint8_t>(x >> 16);
  p[2] = static_cast<std::uint8_t>(x >> 8);
  p[3] = static_cast<std::uint8_t>(x);
}
inline void store_le32(std::uint8_t* p, std::uint32_t x) {
  p[0] = static_cast<std::uint8_t>(x);
  p[1] = static_cast<std::uint8_t>(x >> 8);
  p[2] = static_cast<std::uint8_t>(x >> 16);
  p[3] = static_cast<std::uint8_t>(x >> 24);
}

/// One SHA-256 compression of kLaneCount<V> 64-byte blocks in lockstep.
template <class V>
void sha256_compress_lanes(V h[8], const std::uint8_t* const* blocks) {
  constexpr std::size_t L = kLaneCount<V>;
  V w[64];
  for (int i = 0; i < 16; ++i) {
    V x{};
    for (std::size_t l = 0; l < L; ++l) x[l] = load_be32(blocks[l] + 4 * i);
    w[i] = x;
  }
  for (int i = 16; i < 64; ++i) {
    const V s0 = vrotr(w[i - 15], 7) ^ vrotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const V s1 = vrotr(w[i - 2], 17) ^ vrotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  V a = h[0], b = h[1], c = h[2], d = h[3];
  V e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const V s1 = vrotr(e, 6) ^ vrotr(e, 11) ^ vrotr(e, 25);
    const V ch = (e & f) ^ (~e & g);
    const V temp1 = hh + s1 + ch + broadcast<V>(detail::kSha256K[i]) + w[i];
    const V s0 = vrotr(a, 2) ^ vrotr(a, 13) ^ vrotr(a, 22);
    const V maj = (a & b) ^ (a & c) ^ (b & c);
    const V temp2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  h[0] = h[0] + a;
  h[1] = h[1] + b;
  h[2] = h[2] + c;
  h[3] = h[3] + d;
  h[4] = h[4] + e;
  h[5] = h[5] + f;
  h[6] = h[6] + g;
  h[7] = h[7] + hh;
}

template <class V>
inline void blake2s_g_lanes(V& a, V& b, V& c, V& d, V x, V y) {
  a = a + b + x;
  d = vrotr(d ^ a, 16);
  c = c + d;
  b = vrotr(b ^ c, 12);
  a = a + b + y;
  d = vrotr(d ^ a, 8);
  c = c + d;
  b = vrotr(b ^ c, 7);
}

/// One BLAKE2s compression of kLaneCount<V> 64-byte blocks in lockstep.
/// `t` and `last` are shared: lockstep lanes have absorbed equal byte
/// counts by construction.
template <class V>
void blake2s_compress_lanes(V h[8], const std::uint8_t* const* blocks, std::uint64_t t,
                            bool last) {
  constexpr std::size_t L = kLaneCount<V>;
  V m[16];
  for (int i = 0; i < 16; ++i) {
    V x{};
    for (std::size_t l = 0; l < L; ++l) x[l] = load_le32(blocks[l] + 4 * i);
    m[i] = x;
  }

  V v[16];
  for (int i = 0; i < 8; ++i) v[i] = h[i];
  for (int i = 0; i < 8; ++i) v[8 + i] = broadcast<V>(detail::kBlake2sIv[i]);
  v[12] ^= broadcast<V>(static_cast<std::uint32_t>(t));
  v[13] ^= broadcast<V>(static_cast<std::uint32_t>(t >> 32));
  if (last) v[14] = ~v[14];

  for (int round = 0; round < 10; ++round) {
    const std::uint8_t* s = detail::kBlake2sSigma[round];
    blake2s_g_lanes(v[0], v[4], v[8], v[12], m[s[0]], m[s[1]]);
    blake2s_g_lanes(v[1], v[5], v[9], v[13], m[s[2]], m[s[3]]);
    blake2s_g_lanes(v[2], v[6], v[10], v[14], m[s[4]], m[s[5]]);
    blake2s_g_lanes(v[3], v[7], v[11], v[15], m[s[6]], m[s[7]]);
    blake2s_g_lanes(v[0], v[5], v[10], v[15], m[s[8]], m[s[9]]);
    blake2s_g_lanes(v[1], v[6], v[11], v[12], m[s[10]], m[s[11]]);
    blake2s_g_lanes(v[2], v[7], v[8], v[13], m[s[12]], m[s[13]]);
    blake2s_g_lanes(v[3], v[4], v[9], v[14], m[s[14]], m[s[15]]);
  }

  for (int i = 0; i < 8; ++i) h[i] ^= v[i] ^ v[8 + i];
}

inline constexpr std::uint8_t kDummyBlock[64] = {};

/// Digest up to kLaneCount<V> independent messages.  Full 64-byte blocks
/// common to every active lane run in lockstep; equal-length packs also
/// finish their padded final block(s) in lockstep, while divergent lanes
/// fall back to the scalar core (identical arithmetic, so identical bytes).
template <class V>
void sha256_digest_lanes(const support::ByteView* msgs,
                         const support::MutableByteView* outs, std::size_t count) {
  constexpr std::size_t L = kLaneCount<V>;
  V h[8];
  for (int i = 0; i < 8; ++i) h[i] = broadcast<V>(detail::kSha256Iv[i]);

  const std::uint8_t* ptr[L];
  std::size_t rem[L];
  bool uniform = true;
  for (std::size_t l = 0; l < L; ++l) {
    if (l < count) {
      ptr[l] = msgs[l].data();
      rem[l] = msgs[l].size();
      if (msgs[l].size() != msgs[0].size()) uniform = false;
    } else {
      ptr[l] = kDummyBlock;
      rem[l] = 0;
    }
  }

  // Lockstep over the full blocks every active lane still has.
  std::size_t common = SIZE_MAX;
  for (std::size_t l = 0; l < count; ++l) common = rem[l] < common ? rem[l] : common;
  std::size_t full = count == 0 ? 0 : common / 64;
  const std::uint8_t* blocks[L];
  while (full-- > 0) {
    for (std::size_t l = 0; l < L; ++l) blocks[l] = l < count ? ptr[l] : kDummyBlock;
    sha256_compress_lanes<V>(h, blocks);
    for (std::size_t l = 0; l < count; ++l) {
      ptr[l] += 64;
      rem[l] -= 64;
    }
  }

  if (uniform && count > 0) {
    // Every active lane has the same tail: pad once, compress in lockstep.
    const std::size_t r = rem[0];
    const std::size_t total = msgs[0].size();
    const std::size_t tail_blocks = r < 56 ? 1 : 2;
    const std::uint64_t bits = static_cast<std::uint64_t>(total) * 8;
    std::uint8_t tail[L][128];
    for (std::size_t l = 0; l < L; ++l) {
      std::memset(tail[l], 0, tail_blocks * 64);
      // r > 0: an empty message's view may carry a null data().
      if (l < count && r > 0) std::memcpy(tail[l], ptr[l], r);
      tail[l][r] = 0x80;
      for (int i = 0; i < 8; ++i) {
        tail[l][tail_blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
      }
    }
    for (std::size_t b = 0; b < tail_blocks; ++b) {
      for (std::size_t l = 0; l < L; ++l) blocks[l] = tail[l] + 64 * b;
      sha256_compress_lanes<V>(h, blocks);
    }
    for (std::size_t l = 0; l < count; ++l) {
      for (int i = 0; i < 8; ++i) store_be32(outs[l].data() + 4 * i, h[i][l]);
    }
    return;
  }

  // Divergent lengths: pull each lane's column state out and finish it on
  // the scalar core.
  for (std::size_t l = 0; l < count; ++l) {
    std::uint32_t s[8];
    for (int i = 0; i < 8; ++i) s[i] = h[i][l];
    detail::sha256_finish_portable(s, ptr[l], rem[l], msgs[l].size(), outs[l].data());
  }
}

template <class V>
void blake2s_digest_lanes(const support::ByteView* msgs,
                          const support::MutableByteView* outs, std::size_t count) {
  constexpr std::size_t L = kLaneCount<V>;
  V h[8];
  for (int i = 0; i < 8; ++i) h[i] = broadcast<V>(detail::kBlake2sIv[i]);
  // Unkeyed parameter block: digest_length=32, fanout=depth=1.
  h[0] ^= broadcast<V>(0x01010000u ^ 32u);

  const std::uint8_t* ptr[L];
  std::size_t rem[L];
  bool uniform = true;
  for (std::size_t l = 0; l < L; ++l) {
    if (l < count) {
      ptr[l] = msgs[l].data();
      rem[l] = msgs[l].size();
      if (msgs[l].size() != msgs[0].size()) uniform = false;
    } else {
      ptr[l] = kDummyBlock;
      rem[l] = 0;
    }
  }

  // Lockstep over full blocks, keeping >= 1 byte back per active lane so
  // the final block (which carries the last-flag) is never consumed early.
  std::size_t common = SIZE_MAX;
  for (std::size_t l = 0; l < count; ++l) common = rem[l] < common ? rem[l] : common;
  std::size_t full = (count == 0 || common == 0) ? 0 : (common - 1) / 64;
  std::uint64_t t = 0;
  const std::uint8_t* blocks[L];
  while (full-- > 0) {
    for (std::size_t l = 0; l < L; ++l) blocks[l] = l < count ? ptr[l] : kDummyBlock;
    t += 64;
    blake2s_compress_lanes<V>(h, blocks, t, /*last=*/false);
    for (std::size_t l = 0; l < count; ++l) {
      ptr[l] += 64;
      rem[l] -= 64;
    }
  }

  if (uniform && count > 0) {
    // Equal tails (1..64 bytes, or 0 for empty messages): zero-pad and
    // compress once with the shared final counter and the last flag.
    const std::size_t r = rem[0];
    const std::uint64_t total = msgs[0].size();
    std::uint8_t tail[L][64];
    for (std::size_t l = 0; l < L; ++l) {
      std::memset(tail[l], 0, 64);
      // r > 0: an empty message's view may carry a null data().
      if (l < count && r > 0) std::memcpy(tail[l], ptr[l], r);
    }
    for (std::size_t l = 0; l < L; ++l) blocks[l] = tail[l];
    blake2s_compress_lanes<V>(h, blocks, total, /*last=*/true);
    for (std::size_t l = 0; l < count; ++l) {
      for (int i = 0; i < 8; ++i) store_le32(outs[l].data() + 4 * i, h[i][l]);
    }
    return;
  }

  for (std::size_t l = 0; l < count; ++l) {
    std::uint32_t s[8];
    for (int i = 0; i < 8; ++i) s[i] = h[i][l];
    lane_detail::blake2s_finish_scalar(s, ptr[l], rem[l], msgs[l].size(),
                                       outs[l].data());
  }
}

}  // namespace rasc::crypto::RASC_LANES_NS
