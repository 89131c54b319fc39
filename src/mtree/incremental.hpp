#pragma once
/// \file incremental.hpp
/// Binds a MerkleTree to a sim::DeviceMemory through the per-block
/// generation counters: a round re-digests exactly the blocks whose
/// generation moved since they were last landed, feeds the new digests
/// into the tree, and flushes the invalidated paths — O(dirty * log n)
/// hashing per measurement round.
///
/// The tree subscribes to the memory's generation observer (the RATA-style
/// last-modified signal) at construction and notes every block whose
/// content changes, so dirty discovery walks only the noted blocks — true
/// O(dirty * log n) end to end.  It never digests anything itself: the
/// owner lands digests it computed (the tree-mode prover, through its
/// measurement), so one round is
///
///   collect_dirty() -> digest those blocks -> apply_digest() each -> flush_tree()
///
/// and priming is prime_with() over one digest per block.

#include <span>

#include "src/mtree/mtree.hpp"
#include "src/sim/memory.hpp"

namespace rasc::mtree {

class IncrementalTree {
 public:
  /// The memory must outlive the tree.  Claims the memory's single
  /// generation-observer slot until destruction; throws std::logic_error
  /// when another subscriber (say, a second tree) holds it.  The tree starts
  /// unprimed: prime_with(), or land every block with apply_digest() and
  /// flush_tree(), before the first collect_dirty() or root().
  IncrementalTree(sim::DeviceMemory& memory, crypto::HashKind hash);
  ~IncrementalTree();
  IncrementalTree(const IncrementalTree&) = delete;
  IncrementalTree& operator=(const IncrementalTree&) = delete;

  /// Blocks whose generation differs from the last-landed one right now,
  /// ascending — an O(n) scan of the generation table, the reference the
  /// noted blocks are tested against.
  std::vector<std::size_t> dirty_blocks() const;

  /// The noted blocks a round must re-digest, ascending.  Requires every
  /// leaf landed once (primed()).  The note for each returned block
  /// *survives* until a later collect_dirty() finds its digest landed, so
  /// an aborted round can never strand a stale leaf; notes for blocks
  /// whose generation already matches are dropped.
  std::vector<std::size_t> collect_dirty();

  /// Land an externally computed digest for `block` and mark its tree
  /// path dirty (no flush).  The tree-mode prover digests each collected
  /// block through its measurement (one at a time or in multi-lane
  /// batches) and lands it here; the caller must guarantee `digest` is
  /// the digest of the block's current content.
  void apply_digest(std::size_t block, const Digest& digest);

  /// Prime every leaf from externally computed digests (one per block, in
  /// block order) and rebuild the whole tree.  The caller must guarantee
  /// leaves[b] is the digest of block b's current content (fleet priming
  /// batches golden digests across a shard wave before any infection is
  /// applied).
  RehashStats prime_with(std::span<const Digest> leaves);

  /// Flush the tree paths dirtied by apply_digest() calls.
  RehashStats flush_tree();

  bool primed() const noexcept { return primed_; }
  const Digest& root() const { return tree_.root(); }
  support::Bytes root_bytes() const { return tree_.root_bytes(); }
  const MerkleTree& tree() const noexcept { return tree_; }

  /// Generation each leaf was last landed at (leaf order) — the snapshot
  /// prove_range() embeds in proofs.
  const std::vector<std::uint64_t>& leaf_generations() const noexcept {
    return hashed_generations_;
  }
  MtreeProof prove_range(std::size_t first, std::size_t count) const {
    return tree_.prove_range(first, count, &hashed_generations_);
  }

  std::size_t memory_bytes() const noexcept;

 private:
  void note_block_changed(std::size_t block);

  sim::DeviceMemory& memory_;
  MerkleTree tree_;
  std::vector<std::uint64_t> hashed_generations_;
  bool primed_ = false;
  std::vector<std::uint32_t> observed_;  ///< noted dirty blocks, deduplicated
  std::vector<bool> observed_flag_;
};

}  // namespace rasc::mtree
