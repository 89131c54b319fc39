#include "src/softatt/checksum.hpp"

#include <gtest/gtest.h>

#include "src/support/rng.hpp"

namespace rasc::softatt {
namespace {

using support::Bytes;
using support::to_bytes;

Bytes test_memory(std::size_t size = 4096, std::uint64_t seed = 1) {
  return support::random_bytes(seed, size);
}

TEST(Checksum, Deterministic) {
  const Bytes memory = test_memory();
  EXPECT_EQ(compute_checksum(memory, to_bytes("c1")),
            compute_checksum(memory, to_bytes("c1")));
}

TEST(Checksum, ChallengeDependent) {
  const Bytes memory = test_memory();
  EXPECT_NE(compute_checksum(memory, to_bytes("c1")),
            compute_checksum(memory, to_bytes("c2")));
}

TEST(Checksum, DetectsSingleByteChange) {
  const Bytes memory = test_memory();
  Bytes tampered = memory;
  tampered[1234] ^= 0x01;
  EXPECT_NE(compute_checksum(memory, to_bytes("c")),
            compute_checksum(tampered, to_bytes("c")));
}

TEST(Checksum, DetectsChangesAnywhere) {
  const Bytes memory = test_memory(1024);
  const auto reference = compute_checksum(memory, to_bytes("c"));
  support::Xoshiro256 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes tampered = memory;
    tampered[rng.below(tampered.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_NE(compute_checksum(tampered, to_bytes("c")), reference);
  }
}

TEST(Checksum, EmptyMemoryThrows) {
  EXPECT_THROW(compute_checksum({}, to_bytes("c")), std::invalid_argument);
}

TEST(Checksum, DefaultIterationsAreFourTimesMemory) {
  EXPECT_EQ(resolve_iterations(1000, {}), 4000u);
  ChecksumConfig config;
  config.iterations = 123;
  EXPECT_EQ(resolve_iterations(1000, config), 123u);
}

TEST(Checksum, DefaultTraversalCoversAlmostEverything) {
  // Coupon collector: 4n draws cover 1 - e^-4 ~ 98.2% of addresses.
  const double coverage = traversal_coverage(4096, to_bytes("cov"));
  EXPECT_GT(coverage, 0.97);
  EXPECT_LE(coverage, 1.0);
}

TEST(Checksum, ShortTraversalCoversLess) {
  ChecksumConfig config;
  config.iterations = 1024;  // 0.25 n
  const double coverage = traversal_coverage(4096, to_bytes("cov"), config);
  EXPECT_LT(coverage, 0.5);
  EXPECT_GT(coverage, 0.1);
}

TEST(Checksum, OutputIs64Bytes) {
  EXPECT_EQ(compute_checksum(test_memory(), to_bytes("c")).size(), 64u);
}

TEST(Checksum, IterationCountChangesResult) {
  const Bytes memory = test_memory();
  ChecksumConfig a;
  a.iterations = 1000;
  ChecksumConfig b;
  b.iterations = 1001;
  EXPECT_NE(compute_checksum(memory, to_bytes("c"), a),
            compute_checksum(memory, to_bytes("c"), b));
}

}  // namespace
}  // namespace rasc::softatt
