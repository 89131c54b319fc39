#pragma once
/// \file rng.hpp
/// Deterministic, fast pseudo-random generators for *simulation* purposes
/// (event jitter, Monte-Carlo adversary moves).  Cryptographic randomness
/// lives in src/crypto/drbg.hpp; never use this generator for keys.

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "src/support/bytes.hpp"

namespace rasc::support {

/// SplitMix64: used to expand a user seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** — fast, high-quality, deterministic PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Unbiased integer in [0, bound) via Lemire's nearly-divisionless
  /// method; bound must be > 0.  Inline up to the rare rejection case.
  std::uint64_t below(std::uint64_t bound) noexcept {
    const auto m = static_cast<unsigned __int128>((*this)()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) return below_rejecting(bound, m);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// One draw per byte of `out`, each byte the draw's top 8 bits: exactly
  /// a below(256) loop (whose single draw never rejects), but with the
  /// state in locals, so the byte stores cannot force it back to memory.
  void fill(MutableByteView out) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Raw generator state, for checkpoint/restore (fleet hibernation).
  using State = std::array<std::uint64_t, 4>;

  State state() const noexcept { return {s_[0], s_[1], s_[2], s_[3]}; }

  void set_state(const State& s) noexcept {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  /// below()'s slow path: `m` is the first draw times `bound`, whose low
  /// word fell under `bound`; redraw while it is under the rejection
  /// threshold.
  std::uint64_t below_rejecting(std::uint64_t bound, unsigned __int128 m) noexcept;

  std::uint64_t s_[4];
};

/// `n` bytes of Xoshiro256(seed).fill(), i.e. one below(256) draw each:
/// the deterministic image every provisioning path loads.
Bytes random_bytes(std::uint64_t seed, std::size_t n);

}  // namespace rasc::support
