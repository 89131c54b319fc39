#include "src/mtree/incremental.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "src/crypto/hash.hpp"
#include "src/support/rng.hpp"

namespace rasc::mtree {
namespace {

constexpr std::size_t kBlocks = 16;
constexpr std::size_t kBlockSize = 64;

/// The digest the tree is fed for `block`: SHA-256 of its live content.
Digest leaf_digest(const sim::DeviceMemory& memory, std::size_t block) {
  const auto hash = crypto::make_hash(crypto::HashKind::kSha256);
  hash->update(memory.block_view(block));
  Digest out;
  hash->finalize_into(out.prepare(hash->digest_size()));
  return out;
}

/// Fresh digests of every block, block order.
std::vector<Digest> all_leaf_digests(const sim::DeviceMemory& memory) {
  std::vector<Digest> leaves;
  for (std::size_t b = 0; b < kBlocks; ++b) leaves.push_back(leaf_digest(memory, b));
  return leaves;
}

/// The root a from-scratch MerkleTree::rebuild() gives over fresh digests.
support::Bytes rebuilt_root(const sim::DeviceMemory& memory) {
  MerkleTree reference(kBlocks, crypto::HashKind::kSha256);
  const std::vector<Digest> leaves = all_leaf_digests(memory);
  for (std::size_t b = 0; b < kBlocks; ++b) reference.set_leaf(b, leaves[b]);
  reference.rebuild();
  return reference.root_bytes();
}

struct Fixture {
  sim::DeviceMemory memory{kBlocks * kBlockSize, kBlockSize};
  IncrementalTree tree{memory, crypto::HashKind::kSha256};

  Fixture() { memory.load(support::random_bytes(99, memory.size())); }

  void write_byte(std::size_t block, std::uint8_t value) {
    memory.write(block * kBlockSize, support::Bytes{value}, /*now=*/0,
                 sim::Actor::kApplication);
  }

  /// One refresh round of the tree-mode prover's loop: every block while the tree
  /// is unprimed (the first round's full visit), the noted dirty blocks
  /// after that; digest each, land it, flush.
  RehashStats refresh_round() {
    std::vector<std::size_t> blocks(kBlocks);
    if (tree.primed()) {
      blocks = tree.collect_dirty();
    } else {
      std::iota(blocks.begin(), blocks.end(), std::size_t{0});
    }
    for (const std::size_t block : blocks) {
      tree.apply_digest(block, leaf_digest(memory, block));
    }
    return tree.flush_tree();
  }
};

TEST(IncrementalTree, StartsUnprimedAndRefreshPrimes) {
  Fixture fx;
  EXPECT_FALSE(fx.tree.primed());
  EXPECT_THROW(fx.tree.collect_dirty(), std::logic_error);
  const RehashStats stats = fx.refresh_round();
  EXPECT_TRUE(fx.tree.primed());
  EXPECT_EQ(stats.dirty_leaves, kBlocks);
  EXPECT_EQ(fx.tree.root_bytes(), rebuilt_root(fx.memory));
  // Every note the load left is stale once its block has landed.
  EXPECT_TRUE(fx.tree.collect_dirty().empty());
}

TEST(IncrementalTree, RefreshRehashesOnlyDirtyBlocks) {
  Fixture fx;
  fx.refresh_round();
  fx.write_byte(3, 0xaa);
  fx.write_byte(12, 0xbb);
  EXPECT_EQ(fx.tree.dirty_blocks(), (std::vector<std::size_t>{3, 12}));
  const RehashStats stats = fx.refresh_round();
  EXPECT_EQ(stats.dirty_leaves, 2u);
  EXPECT_LT(stats.nodes_rehashed, 2 * kBlocks);
  EXPECT_TRUE(fx.tree.dirty_blocks().empty());
}

TEST(IncrementalTree, GenerationBumpWithoutContentChangeStillRehashesButRootHolds) {
  Fixture fx;
  fx.refresh_round();
  const support::Bytes before = fx.tree.root_bytes();
  // Rewrite a block with its own bytes: generation moves, digest doesn't.
  const support::ByteView view = fx.memory.block_view(7);
  const support::Bytes same(view.begin(), view.end());
  fx.memory.write(7 * kBlockSize, same, /*now=*/0, sim::Actor::kApplication);
  const RehashStats stats = fx.refresh_round();
  EXPECT_EQ(stats.dirty_leaves, 1u);
  EXPECT_EQ(fx.tree.root_bytes(), before);
}

TEST(IncrementalTree, NotesMatchGenerationScan) {
  Fixture fx;
  fx.refresh_round();
  support::Xoshiro256 rng(5);
  for (int round = 0; round < 12; ++round) {
    const std::size_t dirty = static_cast<std::size_t>(rng.below(4));
    for (std::size_t d = 0; d < dirty; ++d) {
      fx.write_byte(static_cast<std::size_t>(rng.below(kBlocks)),
                    static_cast<std::uint8_t>(rng.below(256)));
    }
    ASSERT_EQ(fx.tree.collect_dirty(), fx.tree.dirty_blocks()) << round;
    fx.refresh_round();
    ASSERT_EQ(fx.tree.root_bytes(), rebuilt_root(fx.memory)) << round;
  }
}

TEST(IncrementalTree, SplitRefreshMatchesFromScratchRebuild) {
  Fixture fx;
  fx.refresh_round();
  fx.write_byte(1, 0x11);
  fx.write_byte(9, 0x22);

  const std::vector<std::size_t> dirty = fx.tree.collect_dirty();
  EXPECT_EQ(dirty, (std::vector<std::size_t>{1, 9}));
  // The prover prices its finalize segment from this prediction.
  const std::size_t planned = fx.tree.tree().plan_rehash(dirty);
  for (const std::size_t block : dirty) {
    fx.tree.apply_digest(block, leaf_digest(fx.memory, block));
  }
  const RehashStats stats = fx.tree.flush_tree();
  EXPECT_EQ(stats.dirty_leaves, 2u);
  EXPECT_EQ(stats.nodes_rehashed, planned);
  EXPECT_EQ(fx.tree.root_bytes(), rebuilt_root(fx.memory));
}

TEST(IncrementalTree, ObservedNoteSurvivesAbortedCollect) {
  Fixture fx;
  fx.refresh_round();
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

TEST(IncrementalTree, PrimeWithMatchesFirstFullVisit) {
  Fixture visited, primed;
  visited.refresh_round();
  const std::vector<Digest> leaves = all_leaf_digests(primed.memory);
  primed.tree.prime_with(leaves);
  EXPECT_TRUE(primed.tree.primed());
  EXPECT_EQ(primed.tree.root_bytes(), visited.tree.root_bytes());
  EXPECT_TRUE(primed.tree.collect_dirty().empty());
  EXPECT_THROW(primed.tree.prime_with(std::span<const Digest>(leaves).first(1)),
               std::invalid_argument);
}

TEST(IncrementalTree, HandsTheObserverSlotBackWhenDestroyed) {
  sim::DeviceMemory memory{kBlocks * kBlockSize, kBlockSize};
  { IncrementalTree gone(memory, crypto::HashKind::kSha256); }
  // A write after the tree is gone must not reach it (the sanitizer job
  // catches a dangling observer), and a new tree takes the slot over.
  memory.write(0, support::Bytes{0x01}, /*now=*/0, sim::Actor::kApplication);
  IncrementalTree tree(memory, crypto::HashKind::kSha256);
  tree.prime_with(all_leaf_digests(memory));
  memory.write(5 * kBlockSize, support::Bytes{0x02}, /*now=*/0,
               sim::Actor::kApplication);
  EXPECT_EQ(tree.collect_dirty(), (std::vector<std::size_t>{5}));
}

TEST(IncrementalTree, SecondTreeOverTheSameMemoryThrows) {
  sim::DeviceMemory memory{kBlocks * kBlockSize, kBlockSize};
  std::optional<IncrementalTree> first;
  first.emplace(memory, crypto::HashKind::kSha256);
  first->prime_with(all_leaf_digests(memory));
  EXPECT_TRUE(memory.has_generation_observer());
  EXPECT_THROW(IncrementalTree(memory, crypto::HashKind::kSha256), std::logic_error);
  // The refused tree left the first one's subscription in place.
  memory.write(3 * kBlockSize, support::Bytes{0x03}, /*now=*/0, sim::Actor::kApplication);
  EXPECT_EQ(first->collect_dirty(), (std::vector<std::size_t>{3}));
  first.reset();
  EXPECT_FALSE(memory.has_generation_observer());
  IncrementalTree next(memory, crypto::HashKind::kSha256);
  next.prime_with(all_leaf_digests(memory));
  memory.write(6 * kBlockSize, support::Bytes{0x06}, /*now=*/0, sim::Actor::kApplication);
  EXPECT_EQ(next.collect_dirty(), (std::vector<std::size_t>{6}));
}

TEST(IncrementalTree, ProveRangeCarriesLiveGenerations) {
  Fixture fx;
  fx.refresh_round();
  fx.write_byte(2, 0xdd);
  fx.refresh_round();
  const MtreeProof proof = fx.tree.prove_range(2, 1);
  EXPECT_TRUE(proof.verify(fx.tree.root_bytes(), kBlocks));
  ASSERT_EQ(proof.generations.size(), 1u);
  EXPECT_EQ(proof.generations[0], fx.memory.block_generation(2));
}

TEST(IncrementalTree, MemoryBytesIncludesTreeAndTracking) {
  Fixture fx;
  EXPECT_GT(fx.tree.memory_bytes(), fx.tree.tree().memory_bytes());
}

}  // namespace
}  // namespace rasc::mtree
