/// Randomized property tests for the Merkle tree (ISSUE 8 satellite):
///  - the root is invariant under the order dirty writes land and always
///    equals a from-scratch rebuild over the same leaf digests;
///  - any single-bit tamper in a proof's carried leaf digests or sibling
///    hashes fails verification against the true root.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/mtree/mtree.hpp"
#include "src/support/rng.hpp"

namespace rasc::mtree {
namespace {

Digest random_digest(support::Xoshiro256& rng) {
  support::Bytes bytes(32);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return Digest(support::ByteView(bytes));
}

TEST(MtreeProperty, RootInvariantUnderWriteOrderAndEqualsRebuild) {
  support::Xoshiro256 rng(0x5eed);
  for (int iteration = 0; iteration < 25; ++iteration) {
    const std::size_t leaves = 1 + static_cast<std::size_t>(rng.below(40));
    // One batch of (leaf, digest) updates; the last write per leaf wins.
    std::vector<std::pair<std::size_t, Digest>> updates;
    const std::size_t count = 1 + static_cast<std::size_t>(rng.below(3 * leaves));
    for (std::size_t u = 0; u < count; ++u) {
      updates.emplace_back(static_cast<std::size_t>(rng.below(leaves)),
                           random_digest(rng));
    }
    // Deduplicate to last-write-wins so permuted application orders agree.
    std::vector<bool> seen(leaves, false);
    std::vector<std::pair<std::size_t, Digest>> final_updates;
    for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
      if (seen[it->first]) continue;
      seen[it->first] = true;
      final_updates.push_back(*it);
    }

    MerkleTree base(leaves, crypto::HashKind::kSha256);
    for (std::size_t i = 0; i < leaves; ++i) base.set_leaf(i, random_digest(rng));
    base.flush();

    // Apply the same updates in several random orders, flushing at random
    // boundaries; every ordering must converge to the same root.
    std::optional<Digest> expected;
    for (int order = 0; order < 4; ++order) {
      MerkleTree tree(leaves, crypto::HashKind::kSha256);
      for (std::size_t i = 0; i < leaves; ++i) tree.set_leaf(i, base.leaf_digest(i));
      tree.flush();
      auto shuffled = final_updates;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[static_cast<std::size_t>(rng.below(i))]);
      }
      for (const auto& [leaf, digest] : shuffled) {
        tree.set_leaf(leaf, digest);
        if (rng.below(3) == 0) tree.flush();  // interleaved partial flushes
      }
      tree.flush();
      if (!expected) {
        expected = tree.root();
      } else {
        ASSERT_EQ(tree.root(), *expected) << "iteration " << iteration;
      }
      // And the incremental result equals a from-scratch rebuild.
      MerkleTree rebuilt(leaves, crypto::HashKind::kSha256);
      for (std::size_t i = 0; i < leaves; ++i) rebuilt.set_leaf(i, tree.leaf_digest(i));
      rebuilt.rebuild();
      ASSERT_EQ(rebuilt.root(), *expected) << "iteration " << iteration;
    }
  }
}

TEST(MtreeProperty, SingleBitTamperInProofFailsVerification) {
  support::Xoshiro256 rng(0x7a3b);
  for (int iteration = 0; iteration < 20; ++iteration) {
    const std::size_t leaves = 2 + static_cast<std::size_t>(rng.below(30));
    MerkleTree tree(leaves, crypto::HashKind::kSha256);
    for (std::size_t i = 0; i < leaves; ++i) tree.set_leaf(i, random_digest(rng));
    tree.flush();
    const support::Bytes root = tree.root_bytes();

    const std::size_t first = static_cast<std::size_t>(rng.below(leaves));
    const std::size_t count =
        1 + static_cast<std::size_t>(rng.below(leaves - first));
    const MtreeProof proof = tree.prove_range(first, count);
    ASSERT_TRUE(proof.verify(root, leaves));

    // Flip one random bit in one random carried leaf digest.
    {
      MtreeProof tampered = proof;
      const std::size_t leaf = static_cast<std::size_t>(rng.below(count));
      support::Bytes bytes = tampered.leaves[leaf].to_bytes();
      bytes[static_cast<std::size_t>(rng.below(bytes.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
      tampered.leaves[leaf].assign(bytes);
      EXPECT_FALSE(tampered.verify(root, leaves)) << "iteration " << iteration;
    }

    // Flip one random bit in one random sibling hash (when any exist —
    // a full-width proof over a 1-level tree carries none).
    if (!proof.siblings.empty()) {
      MtreeProof tampered = proof;
      const std::size_t sibling =
          static_cast<std::size_t>(rng.below(tampered.siblings.size()));
      support::Bytes bytes = tampered.siblings[sibling].to_bytes();
      bytes[static_cast<std::size_t>(rng.below(bytes.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
      tampered.siblings[sibling].assign(bytes);
      EXPECT_FALSE(tampered.verify(root, leaves)) << "iteration " << iteration;
    }

    // Shifting the claimed range must fail too (binding, not just value).
    if (first + count < leaves) {
      MtreeProof shifted = proof;
      shifted.first_leaf += 1;
      EXPECT_FALSE(shifted.verify(root, leaves)) << "iteration " << iteration;
    }
  }
}

}  // namespace
}  // namespace rasc::mtree
