#pragma once
/// \file mtree.hpp
/// Merkle hash tree over per-block digests — the incremental-measurement
/// core of ROADMAP item 2.  The flat measurement combiner (PR 4) MACs all
/// n block digests per round even when the digest cache served most of
/// them; a tree makes re-measurement O(dirty * log n): a dirty leaf
/// invalidates only its root-to-leaf path, and flush() re-hashes exactly
/// the invalidated nodes.  The root then stands in for the flat digest in
/// attest::Report, and contiguous leaf ranges can be *proved* against the
/// root with O(log n) sibling hashes (MtreeProof) — which is what lets a
/// verifier localize WHICH blocks diverged from the golden image instead
/// of returning a bare compromised verdict (the SAFE^d structure from
/// PAPERS.md).
///
/// Layout: a flat heap array of 2 * padded - 1 nodes where padded is the
/// leaf count rounded up to a power of two; node 0 is the root, node i's
/// children are 2i+1 / 2i+2, and leaf L lives at padded - 1 + L.  Domain
/// separation: stored leaf value = H(0x00 || block_digest), internal
/// value = H(0x01 || left || right), padding leaf = H(0x02), so a leaf
/// can never be confused with an interior node (second-preimage
/// structure attacks) and trees of different widths never collide.
///
/// Determinism: the tree is a pure function of (hash kind, leaf digests);
/// flush order does not matter and the incremental root always equals a
/// from-scratch rebuild (property-tested in tests/mtree).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/attest/digest.hpp"
#include "src/crypto/hash.hpp"
#include "src/support/bytes.hpp"

namespace rasc::mtree {

using attest::Digest;

/// Counts from one flush(): how many dirty leaves were folded in and how
/// many tree nodes (leaves + ancestors) were re-hashed for them.  These
/// are what the prover's simulated timing model and the mtree journal
/// events are built from.
struct RehashStats {
  std::size_t dirty_leaves = 0;
  std::size_t nodes_rehashed = 0;
};

/// Subtree proof for a contiguous leaf range [first_leaf, first_leaf +
/// leaf_count): the covered block digests themselves, the O(log n)
/// boundary siblings needed to recompute the root, and a generation
/// snapshot so the verifier can report *when* the covered blocks last
/// changed.  verify() recomputes the root from the carried data alone —
/// any single-bit tamper in a leaf digest or sibling hash changes the
/// recomputed root and fails the check.
struct MtreeProof {
  std::uint32_t first_leaf = 0;
  std::uint32_t leaf_count = 0;
  std::uint32_t total_leaves = 0;       ///< width of the proved tree
  crypto::HashKind hash = crypto::HashKind::kSha256;
  std::vector<Digest> leaves;           ///< block digests, leaf order
  std::vector<std::uint64_t> generations;  ///< per covered leaf
  std::vector<Digest> siblings;         ///< bottom-up, left before right

  /// Recompute the root implied by the carried leaves + siblings and
  /// compare against `root` (constant-time compare), for a tree of
  /// `expected_leaves` leaves.  False on any structural mismatch
  /// (total_leaves other than expected_leaves, empty range, range outside
  /// total_leaves, sibling count not matching the range shape).  The root
  /// binds the width only up to its padded power of two, so the caller's
  /// width is what rejects a total_leaves edited within it.
  bool verify(support::ByteView root, std::size_t expected_leaves) const;

  /// Wire encoding (fixed field order, big-endian lengths) — appended to
  /// the report body when present, so it is covered by the report MAC.
  support::Bytes serialize() const;
  /// Parse one proof; advances `pos` past it.  nullopt on malformed input.
  static std::optional<MtreeProof> parse(support::ByteView wire, std::size_t& pos);
};

class MerkleTree {
 public:
  /// Tree over `leaf_count` block digests (>= 1), all leaves initially
  /// the empty digest — call set_leaf + flush (or assign each leaf) to
  /// populate.
  MerkleTree(std::size_t leaf_count, crypto::HashKind hash);

  std::size_t leaf_count() const noexcept { return leaf_count_; }
  crypto::HashKind hash_kind() const noexcept { return hash_; }

  /// Install a leaf's block digest and mark its root-to-leaf path dirty.
  /// O(log n) amortized; the path walk stops at the first already-dirty
  /// ancestor, so k scattered dirty leaves mark at most k * log n nodes.
  void set_leaf(std::size_t leaf, const Digest& block_digest);

  /// Re-hash every node marked dirty since the last flush, children
  /// before parents.  O(dirty * log n) hash invocations; returns what was
  /// done for timing models and journals.
  RehashStats flush();

  /// Full from-scratch recompute of every node (tree priming, and the
  /// reference the incremental root is property-tested against).
  RehashStats rebuild();

  bool dirty() const noexcept { return !pending_.empty(); }
  /// Nodes that flush() would re-hash right now (dirty leaves included).
  std::size_t pending_nodes() const noexcept { return pending_.size(); }

  /// How many nodes a flush would re-hash if exactly `leaves` were set:
  /// the size of the union of their root-to-leaf paths.  Pure prediction —
  /// does not touch the dirty state.  The prover uses this to price the
  /// round's finalize cost before visiting a single block.
  std::size_t plan_rehash(const std::vector<std::size_t>& leaves) const;

  /// Root hash; throws std::logic_error while dirty (flush first).
  const Digest& root() const;
  support::Bytes root_bytes() const { return root().to_bytes(); }

  /// Stored node value by heap index (0 = root) — exposed for the fleet
  /// aggregation layer and for tests that tamper with interior nodes.
  const Digest& node(std::size_t index) const { return nodes_.at(index); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// The block digest last installed for a leaf (not the domain-separated
  /// stored leaf hash).
  const Digest& leaf_digest(std::size_t leaf) const { return leaf_digests_.at(leaf); }

  /// Build a proof for [first, first + count).  Requires a flushed tree;
  /// `generations` (when provided) must have leaf_count() entries and is
  /// sampled into the proof's snapshot.
  MtreeProof prove_range(std::size_t first, std::size_t count,
                         const std::vector<std::uint64_t>* generations = nullptr) const;

  /// Heap-allocated footprint (node array + leaf copies + dirty state) —
  /// feeds the fleet verifier's memory accounting.
  std::size_t memory_bytes() const noexcept;

  /// Combine an ordered list of child roots into one parent digest with
  /// the internal-node rule (pairwise, padding with the empty-leaf hash).
  /// Used by the fleet to aggregate per-shard roots into one fleet root
  /// with the same domain separation as the tree itself.
  static Digest combine_roots(const std::vector<Digest>& roots,
                              crypto::HashKind hash);

 private:
  void hash_leaf(std::size_t leaf, Digest& out);
  void hash_internal(std::size_t index, Digest& out);
  void mark_path(std::size_t node_index);

  crypto::HashKind hash_;
  std::unique_ptr<crypto::Hash> engine_;  ///< reused across node hashes
  std::size_t leaf_count_;
  std::size_t padded_;       ///< leaves rounded up to a power of two
  std::vector<Digest> nodes_;        ///< 2 * padded_ - 1, heap order
  std::vector<Digest> leaf_digests_; ///< raw block digests, leaf order
  std::vector<bool> node_dirty_;
  std::vector<std::uint32_t> pending_;  ///< dirty node indices, unordered
};

}  // namespace rasc::mtree
