#include "src/support/rng.hpp"

#include <bit>
#include <cmath>

namespace rasc::support {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
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

std::uint64_t Xoshiro256::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  using u128 = unsigned __int128;
  std::uint64_t x = (*this)();
  u128 m = static_cast<u128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<u128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::uniform() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Xoshiro256::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Xoshiro256::exponential(double mean) noexcept {
  double u = uniform();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  Bytes bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

}  // namespace rasc::support
