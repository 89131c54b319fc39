#include "src/sim/memory.hpp"

#include <gtest/gtest.h>

namespace rasc::sim {
namespace {

using support::Bytes;
using support::to_bytes;

TEST(Memory, ConstructionValidation) {
  EXPECT_THROW(DeviceMemory(0, 16), std::invalid_argument);
  EXPECT_THROW(DeviceMemory(100, 0), std::invalid_argument);
  EXPECT_THROW(DeviceMemory(100, 16), std::invalid_argument);  // not a multiple
  DeviceMemory mem(64, 16);
  EXPECT_EQ(mem.size(), 64u);
  EXPECT_EQ(mem.block_count(), 4u);
}

TEST(Memory, StartsZeroedAndUnlocked) {
  DeviceMemory mem(64, 16);
  for (auto byte : mem.read(0, 64)) EXPECT_EQ(byte, 0);
  EXPECT_EQ(mem.locked_block_count(), 0u);
}

TEST(Memory, WriteThenRead) {
  DeviceMemory mem(64, 16);
  EXPECT_TRUE(mem.write(5, to_bytes("hello"), 100, Actor::kApplication));
  EXPECT_EQ(support::to_string(mem.read(5, 5)), "hello");
}

TEST(Memory, OutOfRangeAccessThrows) {
  DeviceMemory mem(64, 16);
  EXPECT_THROW(mem.read(60, 5), std::out_of_range);
  EXPECT_THROW((void)mem.write(64, to_bytes("x"), 0, Actor::kApplication),
               std::out_of_range);
  EXPECT_THROW(mem.block_view(4), std::out_of_range);
}

TEST(Memory, LockBlocksWrite) {
  DeviceMemory mem(64, 16);
  mem.lock_block(0);
  EXPECT_FALSE(mem.write(0, to_bytes("x"), 10, Actor::kMalware));
  // Content unchanged.
  EXPECT_EQ(mem.read(0, 1)[0], 0);
}

TEST(Memory, UnlockRestoresWritability) {
  DeviceMemory mem(64, 16);
  mem.lock_block(1);
  mem.unlock_block(1);
  EXPECT_TRUE(mem.write(16, to_bytes("y"), 10, Actor::kApplication));
}

TEST(Memory, CrossBlockWriteFailsAtomicallyIfAnyLocked) {
  DeviceMemory mem(64, 16);
  mem.lock_block(1);
  // Write spanning blocks 0 and 1 must fail and leave block 0 untouched.
  const Bytes data(20, 0xaa);
  EXPECT_FALSE(mem.write(10, data, 5, Actor::kApplication));
  for (auto byte : mem.read(10, 6)) EXPECT_EQ(byte, 0);
}

TEST(Memory, CrossBlockWriteSucceedsWhenUnlocked) {
  DeviceMemory mem(64, 16);
  const Bytes data(20, 0xaa);
  EXPECT_TRUE(mem.write(10, data, 5, Actor::kApplication));
  EXPECT_EQ(mem.read(29, 1)[0], 0xaa);
}

TEST(Memory, WriteLogRecordsSuccessAndBlocked) {
  DeviceMemory mem(64, 16);
  (void)mem.write(0, to_bytes("a"), 10, Actor::kApplication);
  mem.lock_block(1);
  (void)mem.write(16, to_bytes("b"), 20, Actor::kMalware);
  ASSERT_EQ(mem.write_log().size(), 2u);
  EXPECT_EQ(mem.write_log()[0].time, 10u);
  EXPECT_EQ(mem.write_log()[0].block, 0u);
  EXPECT_EQ(mem.write_log()[0].actor, Actor::kApplication);
  EXPECT_FALSE(mem.write_log()[0].blocked);
  EXPECT_TRUE(mem.write_log()[1].blocked);
  EXPECT_EQ(mem.blocked_write_count(), 1u);
}

TEST(Memory, ClearWriteLog) {
  DeviceMemory mem(64, 16);
  (void)mem.write(0, to_bytes("a"), 10, Actor::kApplication);
  mem.clear_write_log();
  EXPECT_TRUE(mem.write_log().empty());
}

TEST(Memory, SpanningWriteLogsEveryTouchedBlock) {
  DeviceMemory mem(64, 16);
  const Bytes data(33, 1);  // spans 3 blocks
  (void)mem.write(0, data, 7, Actor::kApplication);
  EXPECT_EQ(mem.write_log().size(), 3u);
}

TEST(Memory, ZeroRegion) {
  DeviceMemory mem(64, 16);
  (void)mem.write(0, Bytes(64, 0xff), 1, Actor::kApplication);
  EXPECT_TRUE(mem.zero_region(16, 32, 2, Actor::kMeasurement));
  EXPECT_EQ(mem.read(15, 1)[0], 0xff);
  EXPECT_EQ(mem.read(16, 1)[0], 0x00);
  EXPECT_EQ(mem.read(47, 1)[0], 0x00);
  EXPECT_EQ(mem.read(48, 1)[0], 0xff);
}

TEST(Memory, SnapshotAndLoad) {
  DeviceMemory mem(64, 16);
  (void)mem.write(3, to_bytes("zzz"), 1, Actor::kApplication);
  const Bytes snap = mem.snapshot();
  DeviceMemory other(64, 16);
  other.load(snap);
  EXPECT_EQ(other.snapshot(), snap);
}

TEST(Memory, LoadDoesNotLog) {
  DeviceMemory mem(64, 16);
  mem.load(Bytes(64, 0x11));
  EXPECT_TRUE(mem.write_log().empty());
}

TEST(Memory, EmptyWriteIsNoopSuccess) {
  DeviceMemory mem(64, 16);
  mem.lock_block(0);
  EXPECT_TRUE(mem.write(0, {}, 1, Actor::kApplication));
  EXPECT_TRUE(mem.write_log().empty());
}

TEST(Memory, BlockOfMapsAddresses) {
  DeviceMemory mem(64, 16);
  EXPECT_EQ(mem.block_of(0), 0u);
  EXPECT_EQ(mem.block_of(15), 0u);
  EXPECT_EQ(mem.block_of(16), 1u);
  EXPECT_EQ(mem.block_of(63), 3u);
}

TEST(MemoryGenerations, StartAtZero) {
  DeviceMemory mem(64, 16);
  for (std::size_t b = 0; b < mem.block_count(); ++b) {
    EXPECT_EQ(mem.block_generation(b), 0u);
  }
  EXPECT_EQ(mem.generation(), 0u);
}

TEST(MemoryGenerations, WriteBumpsExactlyTouchedBlocks) {
  DeviceMemory mem(64, 16);
  // Spans blocks 0 and 1 (addresses 14..17).
  EXPECT_TRUE(mem.write(14, to_bytes("abcd"), 1, Actor::kApplication));
  EXPECT_EQ(mem.block_generation(0), 1u);
  EXPECT_EQ(mem.block_generation(1), 1u);
  EXPECT_EQ(mem.block_generation(2), 0u);
  EXPECT_EQ(mem.block_generation(3), 0u);
  EXPECT_EQ(mem.generation(), 1u);
}

TEST(MemoryGenerations, ZeroRegionAndLoadBump) {
  DeviceMemory mem(64, 16);
  mem.zero_region(16, 16, 1, Actor::kMeasurement);
  EXPECT_EQ(mem.block_generation(1), 1u);
  EXPECT_EQ(mem.block_generation(0), 0u);
  mem.load(Bytes(64, 0x5a));
  for (std::size_t b = 0; b < mem.block_count(); ++b) {
    EXPECT_GE(mem.block_generation(b), 1u);
  }
}

TEST(MemoryGenerations, BlockedWriteDoesNotBump) {
  DeviceMemory mem(64, 16);
  mem.lock_block(1);
  EXPECT_FALSE(mem.write(16, to_bytes("x"), 1, Actor::kMalware));
  EXPECT_EQ(mem.block_generation(1), 0u);
  EXPECT_EQ(mem.generation(), 0u);
}

TEST(MemoryGenerations, OutOfRangeThrows) {
  DeviceMemory mem(64, 16);
  EXPECT_THROW(mem.block_generation(4), std::out_of_range);
}

TEST(MemoryLockBitset, CountMaintainedAcrossOps) {
  DeviceMemory mem(130 * 16, 16);  // 130 blocks: spills into a third word
  EXPECT_EQ(mem.locked_block_count(), 0u);
  mem.lock_block(0);
  mem.lock_block(64);
  mem.lock_block(129);
  EXPECT_EQ(mem.locked_block_count(), 3u);
  mem.lock_block(64);  // idempotent
  EXPECT_EQ(mem.locked_block_count(), 3u);
  EXPECT_TRUE(mem.locked(129));
  EXPECT_FALSE(mem.locked(128));
  mem.unlock_block(64);
  EXPECT_EQ(mem.locked_block_count(), 2u);
  mem.unlock_block(64);  // idempotent
  EXPECT_EQ(mem.locked_block_count(), 2u);
}

TEST(MemoryWriteLog, RunningCountersSurviveTruncation) {
  constexpr std::size_t kCapacity = DeviceMemory::kWriteLogCapacity;
  DeviceMemory mem(64, 16);
  mem.lock_block(3);
  // Two records per pass, so the last pass appends to a full log.
  for (std::size_t i = 0; i < kCapacity / 2 + 1; ++i) {
    mem.write(0, to_bytes("a"), i, Actor::kApplication);
    mem.write(48, to_bytes("b"), i, Actor::kMalware);  // blocked
  }
  EXPECT_EQ(mem.dropped_write_records(), kCapacity / 2);
  EXPECT_EQ(mem.write_log().size(), kCapacity / 2 + 2);
  EXPECT_EQ(mem.total_write_count(), kCapacity + 2);
  EXPECT_EQ(mem.blocked_write_count(), kCapacity / 2 + 1);
  mem.clear_write_log();
  EXPECT_EQ(mem.total_write_count(), 0u);
  EXPECT_EQ(mem.blocked_write_count(), 0u);
  EXPECT_EQ(mem.dropped_write_records(), 0u);
}

TEST(MemoryWriteLog, KeepsNewestRecordsOnOverflow) {
  constexpr std::size_t kCapacity = DeviceMemory::kWriteLogCapacity;
  DeviceMemory mem(64, 16);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    mem.write(0, to_bytes("x"), /*now=*/i, Actor::kApplication);
  }
  EXPECT_EQ(mem.write_log().size(), kCapacity);
  EXPECT_EQ(mem.dropped_write_records(), 0u);
  mem.write(0, to_bytes("x"), /*now=*/kCapacity, Actor::kApplication);
  // The oldest half went; oldest-first order and the newest write stay.
  ASSERT_EQ(mem.write_log().size(), kCapacity / 2 + 1);
  EXPECT_EQ(mem.write_log().front().time, kCapacity / 2);
  EXPECT_EQ(mem.write_log().back().time, kCapacity);
  for (std::size_t i = 1; i < mem.write_log().size(); ++i) {
    EXPECT_LT(mem.write_log()[i - 1].time, mem.write_log()[i].time);
  }
}

}  // namespace
}  // namespace rasc::sim
