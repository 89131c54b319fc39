#include "src/mtree/incremental.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasc::mtree {

IncrementalTree::IncrementalTree(const sim::DeviceMemory& memory,
                                 crypto::HashKind hash, LeafDigestFn leaf_fn)
    : memory_(memory),
      leaf_fn_(std::move(leaf_fn)),
      tree_(memory.block_count(), hash),
      hashed_generations_(memory.block_count(), 0),
      hashed_once_(memory.block_count(), false),
      observed_flag_(memory.block_count(), false) {}

void IncrementalTree::note_block_changed(std::size_t block) {
  if (block >= observed_flag_.size() || observed_flag_[block]) return;
  observed_flag_[block] = true;
  observed_.push_back(static_cast<std::uint32_t>(block));
}

std::vector<std::size_t> IncrementalTree::dirty_blocks() const {
  std::vector<std::size_t> dirty;
  for (std::size_t b = 0; b < hashed_generations_.size(); ++b) {
    if (!hashed_once_[b] || memory_.block_generation(b) != hashed_generations_[b]) {
      dirty.push_back(b);
    }
  }
  return dirty;
}

void IncrementalTree::refresh_block(std::size_t block) {
  Digest digest;
  leaf_fn_(block, memory_.block_view(block), digest);
  tree_.set_leaf(block, digest);
  hashed_generations_[block] = memory_.block_generation(block);
  hashed_once_[block] = true;
}

RehashStats IncrementalTree::refresh() {
  if (observed_mode_ && !scan_needed_) {
    // Deterministic ascending visit order regardless of write order.
    std::sort(observed_.begin(), observed_.end());
    for (std::uint32_t block : observed_) {
      observed_flag_[block] = false;
      if (!hashed_once_[block] ||
          memory_.block_generation(block) != hashed_generations_[block]) {
        refresh_block(block);
      }
    }
    observed_.clear();
  } else {
    for (std::size_t block : dirty_blocks()) refresh_block(block);
    for (std::uint32_t block : observed_) observed_flag_[block] = false;
    observed_.clear();
    scan_needed_ = false;
  }
  const RehashStats stats = tree_.flush();
  primed_ = true;
  return stats;
}

std::vector<std::size_t> IncrementalTree::collect_dirty() {
  if (!observed_mode_ || scan_needed_) {
    for (std::uint32_t block : observed_) observed_flag_[block] = false;
    observed_.clear();
    scan_needed_ = false;
    return dirty_blocks();
  }
  std::sort(observed_.begin(), observed_.end());
  std::vector<std::size_t> dirty;
  std::vector<std::uint32_t> keep;
  for (std::uint32_t block : observed_) {
    if (!hashed_once_[block] ||
        memory_.block_generation(block) != hashed_generations_[block]) {
      dirty.push_back(block);
      keep.push_back(block);  // note survives until apply_digest lands it
    } else {
      observed_flag_[block] = false;
    }
  }
  observed_ = std::move(keep);
  return dirty;
}

void IncrementalTree::apply_digest(std::size_t block, const Digest& digest) {
  tree_.set_leaf(block, digest);
  hashed_generations_[block] = memory_.block_generation(block);
  hashed_once_[block] = true;
}

RehashStats IncrementalTree::prime_with(std::span<const Digest> leaves) {
  if (leaves.size() != hashed_generations_.size()) {
    throw std::invalid_argument("prime_with: one digest per block required");
  }
  for (std::size_t b = 0; b < leaves.size(); ++b) apply_digest(b, leaves[b]);
  for (std::uint32_t block : observed_) observed_flag_[block] = false;
  observed_.clear();
  scan_needed_ = false;
  const RehashStats stats = tree_.rebuild();
  primed_ = true;
  return stats;
}

RehashStats IncrementalTree::flush_tree() {
  const RehashStats stats = tree_.flush();
  primed_ = true;
  return stats;
}

RehashStats IncrementalTree::rebuild() {
  for (std::size_t b = 0; b < hashed_generations_.size(); ++b) refresh_block(b);
  for (std::uint32_t block : observed_) observed_flag_[block] = false;
  observed_.clear();
  scan_needed_ = false;
  const RehashStats stats = tree_.rebuild();
  primed_ = true;
  return stats;
}

std::size_t IncrementalTree::memory_bytes() const noexcept {
  return tree_.memory_bytes() +
         hashed_generations_.capacity() * sizeof(std::uint64_t) +
         hashed_once_.capacity() / 8 + observed_flag_.capacity() / 8 +
         observed_.capacity() * sizeof(std::uint32_t);
}

}  // namespace rasc::mtree
