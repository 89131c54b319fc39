#pragma once
/// \file sha256_core.hpp
/// The portable SHA-256 core: round constants, IV and the compression
/// function, shared by the streaming Sha256 class (its fallback kernel),
/// the multi-lane kernels (lanes.hpp) and the SHA-NI kernel (constants
/// only).  Lane tails finish on sha256_finish_portable, the same scalar
/// arithmetic the one-message path falls back to, which is what makes the
/// lane-vs-scalar byte-identity guarantee structural rather than
/// coincidental.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace rasc::crypto::detail {

inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                                               0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t sha256_load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

/// One FIPS 180-4 compression of a 64-byte block into `state`.
inline void sha256_compress(std::uint32_t state[8], const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = sha256_load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// The portable core alone, whatever the CPU: absorb the `rem` bytes at
/// `p` (whole blocks, then the padded tail) into `state` for a message of
/// `total` bytes, and write the 32-byte digest to `out32`.  The lane
/// kernels' tail finisher, and the reference the hardware kernel is tested
/// and timed against.  Defined out of line in sha256.cpp (baseline
/// codegen), so ISA-flagged lane TUs never run their tails on their own
/// flags.
void sha256_finish_portable(std::uint32_t state[8], const std::uint8_t* p,
                            std::size_t rem, std::uint64_t total,
                            std::uint8_t* out32) noexcept;

}  // namespace rasc::crypto::detail
