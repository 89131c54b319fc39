#include "src/support/rng.hpp"

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

std::uint64_t Xoshiro256::below_rejecting(std::uint64_t bound, unsigned __int128 m) noexcept {
  const std::uint64_t threshold = -bound % bound;
  while (static_cast<std::uint64_t>(m) < threshold) {
    m = static_cast<unsigned __int128>((*this)()) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void Xoshiro256::fill(MutableByteView out) noexcept {
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  for (std::uint8_t& byte : out) {
    byte = static_cast<std::uint8_t>((std::rotl(s1 * 5, 7) * 9) >> 56);
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
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
  rng.fill(bytes);
  return bytes;
}

}  // namespace rasc::support
