#pragma once
/// \file incremental.hpp
/// Binds a MerkleTree to a sim::DeviceMemory through the per-block
/// generation counters PR 4 introduced: refresh() re-digests exactly the
/// blocks whose generation moved since they were last hashed, feeds the
/// new digests into the tree, and flushes the invalidated paths —
/// O(dirty * log n) hashing per measurement round.
///
/// Dirty discovery has two modes:
///  - generation scan (default): refresh() compares all n stored
///    generations against the memory's — O(n) integer compares, zero
///    coupling to the memory's observer slot;
///  - observed: when wired to DeviceMemory::set_generation_observer via
///    note_block_changed(), refresh() walks only the noted blocks — true
///    O(dirty * log n) end to end (what the tree-mode prover uses).
/// Both modes produce bit-identical trees; which blocks are *re-hashed*
/// depends only on generations, never on the discovery mode.
///
/// The leaf digest function is injected so this module never depends on
/// attest (the prover passes its BlockDigester, optionally backed by the
/// shared DigestCache).

#include <functional>

#include "src/mtree/mtree.hpp"
#include "src/sim/memory.hpp"

namespace rasc::mtree {

class IncrementalTree {
 public:
  /// Digest one block's live content into `out` (same contract as
  /// attest::BlockDigester::digest, type-erased to avoid the dependency).
  using LeafDigestFn =
      std::function<void(std::size_t block, support::ByteView content, Digest& out)>;

  /// The memory must outlive the tree.  The tree starts unprimed: call
  /// refresh() (or rebuild()) once before root().
  IncrementalTree(const sim::DeviceMemory& memory, crypto::HashKind hash,
                  LeafDigestFn leaf_fn);

  /// Record an externally observed content change (wire this to
  /// DeviceMemory::set_generation_observer).  Cheap and idempotent.
  void note_block_changed(std::size_t block);

  /// Switch dirty discovery to the observed-blocks list.  Until the first
  /// refresh() after enabling, a full scan still runs (the list only
  /// covers changes observed since wiring).
  void use_observed_dirty(bool enabled) noexcept { observed_mode_ = enabled; }

  /// Blocks whose generation differs from the last-hashed one right now
  /// (ascending block order, independent of discovery mode).
  std::vector<std::size_t> dirty_blocks() const;

  /// Re-digest dirty blocks, update the tree, flush invalidated paths.
  RehashStats refresh();

  /// Ignore generations and re-digest everything (priming / reference).
  RehashStats rebuild();

  // --- split refresh, for callers that interleave per-block work (the
  // tree-mode prover visits blocks over simulated time, one per step) ---

  /// The blocks a refresh would re-digest right now, ascending.  In
  /// observed mode the note for each returned block *survives* until
  /// apply_digest() lands it, so an aborted round can never strand a stale
  /// leaf; notes for blocks whose generation already matches are dropped.
  std::vector<std::size_t> collect_dirty();

  /// Land an externally computed digest for `block` and mark its tree
  /// path dirty (no flush).  The tree-mode prover digests each collected
  /// block through its measurement (one at a time or in multi-lane
  /// batches) and lands it here; the caller must guarantee `digest` is
  /// the digest of the block's current content.
  void apply_digest(std::size_t block, const Digest& digest);

  /// Prime every leaf from externally computed digests (one per block, in
  /// block order) and rebuild — rebuild() minus the n leaf_fn calls, with
  /// identical postconditions.  The caller must guarantee leaves[b] is the
  /// digest of block b's current content (fleet priming batches golden
  /// digests across a shard wave before any infection is applied).
  RehashStats prime_with(std::span<const Digest> leaves);

  /// Flush the tree paths dirtied by apply_digest() calls.
  RehashStats flush_tree();

  bool primed() const noexcept { return primed_; }
  const Digest& root() const { return tree_.root(); }
  support::Bytes root_bytes() const { return tree_.root_bytes(); }
  const MerkleTree& tree() const noexcept { return tree_; }

  /// Generation each leaf was last hashed at (leaf order) — the snapshot
  /// prove_range() embeds in proofs.
  const std::vector<std::uint64_t>& leaf_generations() const noexcept {
    return hashed_generations_;
  }
  MtreeProof prove_range(std::size_t first, std::size_t count) const {
    return tree_.prove_range(first, count, &hashed_generations_);
  }

  std::size_t memory_bytes() const noexcept;

 private:
  void refresh_block(std::size_t block);

  const sim::DeviceMemory& memory_;
  LeafDigestFn leaf_fn_;
  MerkleTree tree_;
  std::vector<std::uint64_t> hashed_generations_;
  std::vector<bool> hashed_once_;
  bool primed_ = false;
  bool observed_mode_ = false;
  bool scan_needed_ = true;  ///< observed list incomplete until next refresh
  std::vector<std::uint32_t> observed_;  ///< noted dirty blocks, deduplicated
  std::vector<bool> observed_flag_;
};

}  // namespace rasc::mtree
