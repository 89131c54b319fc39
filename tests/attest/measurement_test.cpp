#include "src/attest/measurement.hpp"

#include <gtest/gtest.h>

#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

sim::DeviceMemory make_memory(std::size_t blocks = 8, std::size_t block_size = 64,
                              std::uint64_t seed = 1) {
  sim::DeviceMemory mem(blocks * block_size, block_size);
  mem.load(support::random_bytes(seed, mem.size()));
  return mem;
}

MeasurementContext ctx(std::uint64_t counter = 1) {
  return MeasurementContext{"dev-1", to_bytes("challenge"), counter};
}

TEST(Measurement, CompleteAfterAllBlocks) {
  auto mem = make_memory();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  EXPECT_EQ(m.total_blocks(), 8u);
  for (std::size_t b = 0; b < 8; ++b) {
    EXPECT_FALSE(m.complete());
    m.visit_block(b, 100 + b);
  }
  EXPECT_TRUE(m.complete());
  EXPECT_EQ(m.visited(), 8u);
}

TEST(Measurement, FinalizeBeforeCompleteThrows) {
  auto mem = make_memory();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  m.visit_block(0, 1);
  EXPECT_THROW(m.finalize(), std::logic_error);
}

TEST(Measurement, OrderIndependentResult) {
  auto mem = make_memory();
  Measurement forward(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  Measurement backward(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  for (std::size_t b = 0; b < 8; ++b) forward.visit_block(b, b);
  for (std::size_t b = 8; b-- > 0;) backward.visit_block(b, b);
  EXPECT_EQ(forward.finalize(), backward.finalize());
}

TEST(Measurement, MatchesExpectedOnCleanMemory) {
  auto mem = make_memory();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  for (std::size_t b = 0; b < 8; ++b) m.visit_block(b, b);
  EXPECT_EQ(m.finalize(), Measurement::expected(mem.snapshot(), mem.block_size(),
                                                crypto::HashKind::kSha256, to_bytes("k"),
                                                ctx()));
}

TEST(Measurement, DetectsSingleByteChange) {
  auto mem = make_memory();
  const auto golden = mem.snapshot();
  (void)mem.write(100, to_bytes("x"), 5, sim::Actor::kMalware);
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  for (std::size_t b = 0; b < 8; ++b) m.visit_block(b, b);
  EXPECT_NE(m.finalize(), Measurement::expected(golden, mem.block_size(),
                                                crypto::HashKind::kSha256, to_bytes("k"),
                                                ctx()));
}

TEST(Measurement, ReadsContentAtVisitTime) {
  auto mem = make_memory();
  const auto golden = mem.snapshot();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  m.visit_block(0, 1);
  // Block 0 changes *after* being visited: result must still match golden.
  (void)mem.write(0, to_bytes("tampered"), 2, sim::Actor::kMalware);
  for (std::size_t b = 1; b < 8; ++b) m.visit_block(b, 10 + b);
  EXPECT_EQ(m.finalize(), Measurement::expected(golden, mem.block_size(),
                                                crypto::HashKind::kSha256, to_bytes("k"),
                                                ctx()));
}

TEST(Measurement, RevisitOverwritesDigest) {
  auto mem = make_memory();
  const auto golden = mem.snapshot();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  m.visit_block(0, 1);
  (void)mem.write(0, to_bytes("tampered"), 2, sim::Actor::kMalware);
  m.visit_block(0, 3);  // re-measure after tampering
  for (std::size_t b = 1; b < 8; ++b) m.visit_block(b, 10 + b);
  EXPECT_EQ(m.visited(), 8u);
  EXPECT_NE(m.finalize(), Measurement::expected(golden, mem.block_size(),
                                                crypto::HashKind::kSha256, to_bytes("k"),
                                                ctx()));
}

TEST(Measurement, BindsChallenge) {
  auto mem = make_memory();
  MeasurementContext a{"dev-1", to_bytes("challenge-A"), 1};
  MeasurementContext b{"dev-1", to_bytes("challenge-B"), 1};
  Measurement ma(mem, crypto::HashKind::kSha256, to_bytes("k"), a);
  Measurement mb(mem, crypto::HashKind::kSha256, to_bytes("k"), b);
  for (std::size_t i = 0; i < 8; ++i) {
    ma.visit_block(i, i);
    mb.visit_block(i, i);
  }
  EXPECT_NE(ma.finalize(), mb.finalize());
}

TEST(Measurement, BindsCounterDeviceIdAndKey) {
  auto mem = make_memory();
  const auto base = Measurement::expected(mem.snapshot(), mem.block_size(),
                                          crypto::HashKind::kSha256, to_bytes("k"), ctx(1));
  EXPECT_NE(base, Measurement::expected(mem.snapshot(), mem.block_size(),
                                        crypto::HashKind::kSha256, to_bytes("k"), ctx(2)));
  MeasurementContext other_dev{"dev-2", to_bytes("challenge"), 1};
  EXPECT_NE(base, Measurement::expected(mem.snapshot(), mem.block_size(),
                                        crypto::HashKind::kSha256, to_bytes("k"),
                                        other_dev));
  EXPECT_NE(base, Measurement::expected(mem.snapshot(), mem.block_size(),
                                        crypto::HashKind::kSha256, to_bytes("k2"), ctx(1)));
}

TEST(Measurement, VisitOutsideCoverageThrows) {
  auto mem = make_memory();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx(),
                Coverage{2, 4});
  EXPECT_THROW(m.visit_block(1, 0), std::out_of_range);
  EXPECT_THROW(m.visit_block(6, 0), std::out_of_range);
  m.visit_block(2, 0);
  m.visit_block(5, 0);
  EXPECT_EQ(m.total_blocks(), 4u);
}

TEST(Measurement, PartialCoverageMatchesRegionImage) {
  auto mem = make_memory();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx(), Coverage{2, 4});
  for (std::size_t b = 2; b < 6; ++b) m.visit_block(b, b);
  const auto region = mem.read(2 * mem.block_size(), 4 * mem.block_size());
  EXPECT_EQ(m.finalize(),
            Measurement::expected(region, mem.block_size(), crypto::HashKind::kSha256,
                                  to_bytes("k"), ctx()));
}

TEST(Measurement, CoverageBeyondMemoryThrows) {
  auto mem = make_memory();
  EXPECT_THROW(Measurement(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx(),
                           Coverage{4, 8}),
               std::out_of_range);
}

TEST(Measurement, VisitTimesAreRecorded) {
  auto mem = make_memory();
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  m.visit_block(3, 42);
  ASSERT_TRUE(m.visit_times()[3].has_value());
  EXPECT_EQ(*m.visit_times()[3], 42u);
  EXPECT_FALSE(m.visit_times()[0].has_value());
}

TEST(Measurement, ExpectedValidatesImageSize) {
  EXPECT_THROW(Measurement::expected(support::Bytes(100), 64, crypto::HashKind::kSha256,
                                     to_bytes("k"), ctx()),
               std::invalid_argument);
}

class MeasurementAllHashes : public ::testing::TestWithParam<crypto::HashKind> {};
INSTANTIATE_TEST_SUITE_P(Kinds, MeasurementAllHashes,
                         ::testing::ValuesIn(crypto::kAllHashKinds));

TEST_P(MeasurementAllHashes, WorksForEveryHash) {
  auto mem = make_memory();
  Measurement m(mem, GetParam(), to_bytes("k"), ctx());
  for (std::size_t b = 0; b < 8; ++b) m.visit_block(b, b);
  EXPECT_EQ(m.finalize(), Measurement::expected(mem.snapshot(), mem.block_size(),
                                                GetParam(), to_bytes("k"), ctx()));
}

}  // namespace
}  // namespace rasc::attest
