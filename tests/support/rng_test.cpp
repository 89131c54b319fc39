#include "src/support/rng.hpp"

#include <gtest/gtest.h>

#include <array>

namespace rasc::support {
namespace {

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(123);
  std::array<int, 8> buckets{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.below(8)];
  for (int count : buckets) {
    // Expect 10000 per bucket; allow 5% deviation (many sigma).
    EXPECT_NEAR(count, kDraws / 8, kDraws / 8 / 20);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.25, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Xoshiro256 rng(13);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kDraws, 4.0, 0.1);
}

TEST(Rng, KnownAnswerStreamOfSeedOne) {
  // Every simulated byte stream (writer payloads, device images, link
  // fates) is a function of these draws: the raw outputs, the
  // one-draw-per-byte below(256), and a bound whose rejection loop throws
  // away about half its draws.
  Xoshiro256 raw(1);
  for (const std::uint64_t expected :
       {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
        0x642e1c7bc266a3a7ULL}) {
    EXPECT_EQ(raw(), expected);
  }
  Xoshiro256 bytes(1);
  for (const std::uint64_t expected : {179, 133, 146, 100, 178, 36, 18, 97}) {
    EXPECT_EQ(bytes.below(256), expected);
  }
  Xoshiro256 wide(1);
  constexpr std::uint64_t kRejectsHalf = (1ULL << 63) + 1;
  for (const std::uint64_t expected :
       {0x429daacb239b2675ULL, 0x497c4bab0415228aULL, 0x32170e3de13351d3ULL,
        0x30caa6e623d8f44eULL, 0x469e6dc61d52d8e8ULL, 0x7a861ff8f3ebf453ULL}) {
    EXPECT_EQ(wide.below(kRejectsHalf), expected);
  }
  // Those six results took twelve raw draws: the thirteenth comes next.
  EXPECT_EQ(wide(), 0xeeca3115e23bc8f1ULL);
}

TEST(Rng, FillMatchesOneBelow256DrawPerByte) {
  // fill() is the byte loop it replaced, byte for byte, and leaves the
  // generator where the loop would: the writer's payloads and every
  // random_bytes image depend on both.
  for (const std::uint64_t seed : {1ULL, 7ULL, 0xdeadbeefULL, 0x9e3779b97f4a7c15ULL}) {
    for (std::size_t n = 0; n <= 130; ++n) {
      Xoshiro256 looped(seed);
      Xoshiro256 filled(seed);
      Bytes expected(n);
      for (auto& b : expected) b = static_cast<std::uint8_t>(looped.below(256));
      Bytes got(n, 0xa5);
      filled.fill(got);
      ASSERT_EQ(got, expected) << "seed " << seed << " length " << n;
      ASSERT_EQ(filled.state(), looped.state()) << "seed " << seed << " length " << n;
    }
  }
  EXPECT_EQ(random_bytes(1, 8), (Bytes{179, 133, 146, 100, 178, 36, 18, 97}));
}

TEST(Rng, SplitMixAdvancesState) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

}  // namespace
}  // namespace rasc::support
