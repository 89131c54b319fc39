#include "src/mtree/incremental.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasc::mtree {

IncrementalTree::IncrementalTree(sim::DeviceMemory& memory, crypto::HashKind hash)
    : memory_(memory),
      tree_(memory.block_count(), hash),
      hashed_generations_(memory.block_count(), 0),
      observed_flag_(memory.block_count(), false) {
  memory_.set_generation_observer(
      [this](std::size_t block) { note_block_changed(block); });
}

IncrementalTree::~IncrementalTree() { memory_.set_generation_observer(nullptr); }

void IncrementalTree::note_block_changed(std::size_t block) {
  if (block >= observed_flag_.size() || observed_flag_[block]) return;
  observed_flag_[block] = true;
  observed_.push_back(static_cast<std::uint32_t>(block));
}

std::vector<std::size_t> IncrementalTree::dirty_blocks() const {
  std::vector<std::size_t> dirty;
  for (std::size_t b = 0; b < hashed_generations_.size(); ++b) {
    if (memory_.block_generation(b) != hashed_generations_[b]) dirty.push_back(b);
  }
  return dirty;
}

std::vector<std::size_t> IncrementalTree::collect_dirty() {
  if (!primed_) throw std::logic_error("collect_dirty before every leaf was landed");
  // Deterministic ascending visit order regardless of write order.
  std::sort(observed_.begin(), observed_.end());
  std::erase_if(observed_, [this](std::uint32_t block) {
    const bool landed = memory_.block_generation(block) == hashed_generations_[block];
    if (landed) observed_flag_[block] = false;
    return landed;
  });
  return {observed_.begin(), observed_.end()};
}

void IncrementalTree::apply_digest(std::size_t block, const Digest& digest) {
  tree_.set_leaf(block, digest);
  hashed_generations_[block] = memory_.block_generation(block);
}

RehashStats IncrementalTree::prime_with(std::span<const Digest> leaves) {
  if (leaves.size() != hashed_generations_.size()) {
    throw std::invalid_argument("prime_with: one digest per block required");
  }
  for (std::size_t b = 0; b < leaves.size(); ++b) apply_digest(b, leaves[b]);
  const RehashStats stats = tree_.rebuild();
  primed_ = true;
  return stats;
}

RehashStats IncrementalTree::flush_tree() {
  const RehashStats stats = tree_.flush();
  primed_ = true;
  return stats;
}

std::size_t IncrementalTree::memory_bytes() const noexcept {
  return tree_.memory_bytes() +
         hashed_generations_.capacity() * sizeof(std::uint64_t) +
         observed_flag_.capacity() / 8 + observed_.capacity() * sizeof(std::uint32_t);
}

}  // namespace rasc::mtree
