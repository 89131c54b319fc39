#include "src/mtree/incremental.hpp"

#include <gtest/gtest.h>

#include "src/crypto/hash.hpp"
#include "src/support/rng.hpp"

namespace rasc::mtree {
namespace {

constexpr std::size_t kBlocks = 16;
constexpr std::size_t kBlockSize = 64;

IncrementalTree::LeafDigestFn sha_leaf() {
  return [](std::size_t, support::ByteView content, Digest& out) {
    const auto hash = crypto::make_hash(crypto::HashKind::kSha256);
    hash->update(content);
    hash->finalize_into(out.prepare(hash->digest_size()));
  };
}

/// What sha_leaf() makes of `block`'s live content.
Digest leaf_digest(const sim::DeviceMemory& memory, std::size_t block) {
  Digest out;
  sha_leaf()(block, memory.block_view(block), out);
  return out;
}

struct Fixture {
  sim::DeviceMemory memory{kBlocks * kBlockSize, kBlockSize};
  IncrementalTree tree;

  Fixture() : tree(memory, crypto::HashKind::kSha256, sha_leaf()) {
    memory.load(support::random_bytes(99, memory.size()));
  }

  void write_byte(std::size_t block, std::uint8_t value) {
    memory.write(block * kBlockSize, support::Bytes{value}, /*now=*/0,
                 sim::Actor::kApplication);
  }
};

TEST(IncrementalTree, StartsUnprimedAndRefreshPrimes) {
  Fixture fx;
  EXPECT_FALSE(fx.tree.primed());
  const RehashStats stats = fx.tree.refresh();
  EXPECT_TRUE(fx.tree.primed());
  EXPECT_EQ(stats.dirty_leaves, kBlocks);
  EXPECT_FALSE(fx.tree.root_bytes().empty());
}

TEST(IncrementalTree, RefreshRehashesOnlyDirtyBlocks) {
  Fixture fx;
  fx.tree.refresh();
  fx.write_byte(3, 0xaa);
  fx.write_byte(12, 0xbb);
  EXPECT_EQ(fx.tree.dirty_blocks(), (std::vector<std::size_t>{3, 12}));
  const RehashStats stats = fx.tree.refresh();
  EXPECT_EQ(stats.dirty_leaves, 2u);
  EXPECT_LT(stats.nodes_rehashed, 2 * kBlocks);
  EXPECT_TRUE(fx.tree.dirty_blocks().empty());
}

TEST(IncrementalTree, GenerationBumpWithoutContentChangeStillRehashesButRootHolds) {
  Fixture fx;
  fx.tree.refresh();
  const support::Bytes before = fx.tree.root_bytes();
  // Rewrite a block with its own bytes: generation moves, digest doesn't.
  const support::ByteView view = fx.memory.block_view(7);
  const support::Bytes same(view.begin(), view.end());
  fx.memory.write(7 * kBlockSize, same, /*now=*/0, sim::Actor::kApplication);
  const RehashStats stats = fx.tree.refresh();
  EXPECT_EQ(stats.dirty_leaves, 1u);
  EXPECT_EQ(fx.tree.root_bytes(), before);
}

TEST(IncrementalTree, ObservedModeMatchesScanMode) {
  Fixture scan, observed;
  observed.memory.load(support::Bytes(scan.memory.read(0, scan.memory.size()).begin(),
                                      scan.memory.read(0, scan.memory.size()).end()));
  observed.memory.set_generation_observer(
      [&observed](std::size_t block) { observed.tree.note_block_changed(block); });
  observed.tree.use_observed_dirty(true);
  scan.tree.refresh();
  observed.tree.refresh();

  support::Xoshiro256 rng(5);
  for (int round = 0; round < 12; ++round) {
    const std::size_t dirty = static_cast<std::size_t>(rng.below(4));
    for (std::size_t d = 0; d < dirty; ++d) {
      const std::size_t block = static_cast<std::size_t>(rng.below(kBlocks));
      const std::uint8_t value = static_cast<std::uint8_t>(rng.below(256));
      scan.write_byte(block, value);
      observed.write_byte(block, value);
    }
    scan.tree.refresh();
    observed.tree.refresh();
    ASSERT_EQ(scan.tree.root_bytes(), observed.tree.root_bytes()) << round;
  }
}

TEST(IncrementalTree, SplitRefreshMatchesMonolithicRefresh) {
  Fixture split, mono;
  mono.memory.load(support::Bytes(split.memory.read(0, split.memory.size()).begin(),
                                  split.memory.read(0, split.memory.size()).end()));
  split.tree.refresh();
  mono.tree.refresh();
  split.write_byte(1, 0x11);
  split.write_byte(9, 0x22);
  mono.write_byte(1, 0x11);
  mono.write_byte(9, 0x22);

  const std::vector<std::size_t> dirty = split.tree.collect_dirty();
  EXPECT_EQ(dirty, (std::vector<std::size_t>{1, 9}));
  for (const std::size_t block : dirty) {
    split.tree.apply_digest(block, leaf_digest(split.memory, block));
  }
  const RehashStats split_stats = split.tree.flush_tree();
  const RehashStats mono_stats = mono.tree.refresh();
  EXPECT_EQ(split_stats.dirty_leaves, mono_stats.dirty_leaves);
  EXPECT_EQ(split_stats.nodes_rehashed, mono_stats.nodes_rehashed);
  EXPECT_EQ(split.tree.root_bytes(), mono.tree.root_bytes());
}

TEST(IncrementalTree, ObservedNoteSurvivesAbortedCollect) {
  Fixture fx;
  fx.memory.set_generation_observer(
      [&fx](std::size_t block) { fx.tree.note_block_changed(block); });
  fx.tree.use_observed_dirty(true);
  fx.tree.refresh();
  fx.write_byte(4, 0xcc);
  // A round collects the dirty block but aborts before refreshing it.
  EXPECT_EQ(fx.tree.collect_dirty(), (std::vector<std::size_t>{4}));
  // The next round must still see it — the note is not consumed until
  // apply_digest() lands the new digest.
  EXPECT_EQ(fx.tree.collect_dirty(), (std::vector<std::size_t>{4}));
  fx.tree.apply_digest(4, leaf_digest(fx.memory, 4));
  fx.tree.flush_tree();
  EXPECT_TRUE(fx.tree.collect_dirty().empty());
}

TEST(IncrementalTree, ProveRangeCarriesLiveGenerations) {
  Fixture fx;
  fx.tree.refresh();
  fx.write_byte(2, 0xdd);
  fx.tree.refresh();
  const MtreeProof proof = fx.tree.prove_range(2, 1);
  EXPECT_TRUE(proof.verify(fx.tree.root_bytes()));
  ASSERT_EQ(proof.generations.size(), 1u);
  EXPECT_EQ(proof.generations[0], fx.memory.block_generation(2));
}

TEST(IncrementalTree, MemoryBytesIncludesTreeAndTracking) {
  Fixture fx;
  EXPECT_GT(fx.tree.memory_bytes(), fx.tree.tree().memory_bytes());
}

}  // namespace
}  // namespace rasc::mtree
