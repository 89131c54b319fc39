#include "src/mtree/mtree.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasc::mtree {

namespace {

/// Domain-separation prefixes (see the file comment in mtree.hpp).
constexpr std::uint8_t kLeafPrefix = 0x00;
constexpr std::uint8_t kInternalPrefix = 0x01;
constexpr std::uint8_t kPaddingPrefix = 0x02;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void hash_padding(crypto::Hash& engine, Digest& out) {
  const std::uint8_t prefix = kPaddingPrefix;
  engine.update(support::ByteView(&prefix, 1));
  engine.finalize_into(out.prepare(engine.digest_size()));
}

void hash_pair(crypto::Hash& engine, const Digest& left, const Digest& right,
               Digest& out) {
  const std::uint8_t prefix = kInternalPrefix;
  engine.update(support::ByteView(&prefix, 1));
  engine.update(left.view());
  engine.update(right.view());
  engine.finalize_into(out.prepare(engine.digest_size()));
}

void hash_leaf_digest(crypto::Hash& engine, const Digest& block_digest, Digest& out) {
  const std::uint8_t prefix = kLeafPrefix;
  engine.update(support::ByteView(&prefix, 1));
  engine.update(block_digest.view());
  engine.finalize_into(out.prepare(engine.digest_size()));
}

}  // namespace

MerkleTree::MerkleTree(std::size_t leaf_count, crypto::HashKind hash)
    : hash_(hash), leaf_count_(leaf_count), padded_(next_pow2(leaf_count)) {
  if (leaf_count == 0) throw std::invalid_argument("MerkleTree: leaf_count == 0");
  engine_ = crypto::make_hash(hash_);
  nodes_.assign(2 * padded_ - 1, {});
  leaf_digests_.assign(leaf_count_, {});
  node_dirty_.assign(nodes_.size(), true);
  // Everything starts dirty: the first flush()/rebuild() computes the
  // whole tree (priming), and root() refuses to serve until then.
  pending_.resize(nodes_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pending_[i] = static_cast<std::uint32_t>(i);
  }
}

void MerkleTree::mark_path(std::size_t node_index) {
  std::size_t i = node_index;
  while (true) {
    if (node_dirty_[i]) break;  // ancestors above are already marked
    node_dirty_[i] = true;
    pending_.push_back(static_cast<std::uint32_t>(i));
    if (i == 0) break;
    i = (i - 1) / 2;
  }
}

void MerkleTree::set_leaf(std::size_t leaf, const Digest& block_digest) {
  if (leaf >= leaf_count_) throw std::out_of_range("MerkleTree::set_leaf out of range");
  leaf_digests_[leaf] = block_digest;
  mark_path(padded_ - 1 + leaf);
}

void MerkleTree::hash_leaf(std::size_t leaf, Digest& out) {
  if (leaf < leaf_count_) {
    hash_leaf_digest(*engine_, leaf_digests_[leaf], out);
  } else {
    hash_padding(*engine_, out);
  }
}

void MerkleTree::hash_internal(std::size_t index, Digest& out) {
  hash_pair(*engine_, nodes_[2 * index + 1], nodes_[2 * index + 2], out);
}

RehashStats MerkleTree::flush() {
  RehashStats stats;
  if (pending_.empty()) return stats;
  // Heap order guarantees parent index < child index, so a descending
  // sweep re-hashes children before the parents that consume them.
  std::sort(pending_.begin(), pending_.end(), std::greater<>());
  for (std::uint32_t idx : pending_) {
    if (idx >= padded_ - 1) {
      const std::size_t leaf = idx - (padded_ - 1);
      hash_leaf(leaf, nodes_[idx]);
      if (leaf < leaf_count_) ++stats.dirty_leaves;
    } else {
      hash_internal(idx, nodes_[idx]);
    }
    node_dirty_[idx] = false;
  }
  stats.nodes_rehashed = pending_.size();
  pending_.clear();
  return stats;
}

RehashStats MerkleTree::rebuild() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!node_dirty_[i]) {
      node_dirty_[i] = true;
      pending_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return flush();
}

const Digest& MerkleTree::root() const {
  if (dirty()) throw std::logic_error("MerkleTree::root while dirty (flush first)");
  return nodes_[0];
}

MtreeProof MerkleTree::prove_range(
    std::size_t first, std::size_t count,
    const std::vector<std::uint64_t>* generations) const {
  if (dirty()) throw std::logic_error("MerkleTree::prove_range while dirty");
  if (count == 0 || first + count > leaf_count_) {
    throw std::out_of_range("MerkleTree::prove_range outside leaves");
  }
  MtreeProof proof;
  proof.first_leaf = static_cast<std::uint32_t>(first);
  proof.leaf_count = static_cast<std::uint32_t>(count);
  proof.total_leaves = static_cast<std::uint32_t>(leaf_count_);
  proof.hash = hash_;
  proof.leaves.assign(leaf_digests_.begin() + static_cast<std::ptrdiff_t>(first),
                      leaf_digests_.begin() + static_cast<std::ptrdiff_t>(first + count));
  proof.generations.resize(count, 0);
  if (generations != nullptr) {
    for (std::size_t i = 0; i < count; ++i) proof.generations[i] = (*generations)[first + i];
  }
  // Boundary siblings, bottom-up; left boundary before right boundary on
  // each level (the order verify() consumes them in).
  std::size_t lo = padded_ - 1 + first;
  std::size_t hi = padded_ - 1 + first + count - 1;
  while (lo != 0) {
    if (lo % 2 == 0) {  // right child: left boundary needs its sibling
      proof.siblings.push_back(nodes_[lo - 1]);
      --lo;
    }
    if (hi % 2 == 1) {  // left child: right boundary needs its sibling
      proof.siblings.push_back(nodes_[hi + 1]);
      ++hi;
    }
    lo = (lo - 1) / 2;
    hi = (hi - 1) / 2;
  }
  return proof;
}

std::size_t MerkleTree::plan_rehash(const std::vector<std::size_t>& leaves) const {
  std::vector<bool> marked(nodes_.size(), false);
  std::size_t count = 0;
  for (std::size_t leaf : leaves) {
    if (leaf >= leaf_count_) throw std::out_of_range("MerkleTree::plan_rehash");
    std::size_t i = padded_ - 1 + leaf;
    while (!marked[i]) {
      marked[i] = true;
      ++count;
      if (i == 0) break;
      i = (i - 1) / 2;
    }
  }
  return count;
}

std::size_t MerkleTree::memory_bytes() const noexcept {
  return nodes_.capacity() * sizeof(Digest) +
         leaf_digests_.capacity() * sizeof(Digest) + node_dirty_.capacity() / 8 +
         pending_.capacity() * sizeof(std::uint32_t);
}

Digest MerkleTree::combine_roots(const std::vector<Digest>& roots,
                                 crypto::HashKind hash) {
  auto engine = crypto::make_hash(hash);
  Digest padding;
  hash_padding(*engine, padding);
  if (roots.empty()) return padding;
  std::vector<Digest> level = roots;
  while (level.size() > 1) {
    if (level.size() % 2 != 0) level.push_back(padding);
    std::vector<Digest> next(level.size() / 2);
    for (std::size_t i = 0; i < next.size(); ++i) {
      hash_pair(*engine, level[2 * i], level[2 * i + 1], next[i]);
    }
    level = std::move(next);
  }
  return level[0];
}

bool MtreeProof::verify(support::ByteView root, std::size_t expected_leaves) const {
  if (total_leaves != expected_leaves || leaf_count == 0 || total_leaves == 0 ||
      first_leaf > total_leaves || leaf_count > total_leaves - first_leaf ||
      leaves.size() != leaf_count) {
    return false;
  }
  auto engine = crypto::make_hash(hash);
  const std::size_t padded = next_pow2(total_leaves);
  std::vector<Digest> cur(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    hash_leaf_digest(*engine, leaves[i], cur[i]);
  }
  std::size_t lo = padded - 1 + first_leaf;
  std::size_t hi = lo + leaf_count - 1;
  std::size_t sib = 0;
  while (lo != 0) {
    std::vector<Digest> row;
    row.reserve(cur.size() + 2);
    if (lo % 2 == 0) {
      if (sib >= siblings.size()) return false;
      row.push_back(siblings[sib++]);
      --lo;
    }
    row.insert(row.end(), cur.begin(), cur.end());
    if (hi % 2 == 1) {
      if (sib >= siblings.size()) return false;
      row.push_back(siblings[sib++]);
      ++hi;
    }
    if (row.size() % 2 != 0) return false;
    cur.resize(row.size() / 2);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      hash_pair(*engine, row[2 * i], row[2 * i + 1], cur[i]);
    }
    lo = (lo - 1) / 2;
    hi = (hi - 1) / 2;
  }
  if (sib != siblings.size()) return false;  // trailing garbage siblings
  return support::ct_equal(cur[0].view(), root);
}

support::Bytes MtreeProof::serialize() const {
  support::Bytes out;
  const std::size_t digest_size = crypto::hash_digest_size(hash);
  support::append_u32_be(out, first_leaf);
  support::append_u32_be(out, leaf_count);
  support::append_u32_be(out, total_leaves);
  support::append_u32_be(out, static_cast<std::uint32_t>(hash));
  support::append_u32_be(out, static_cast<std::uint32_t>(digest_size));
  for (const Digest& d : leaves) {
    if (d.size() != digest_size) throw std::logic_error("MtreeProof: ragged leaf digest");
    support::append(out, d.view());
  }
  for (std::uint64_t g : generations) support::append_u64_be(out, g);
  support::append_u32_be(out, static_cast<std::uint32_t>(siblings.size()));
  for (const Digest& d : siblings) {
    if (d.size() != digest_size) throw std::logic_error("MtreeProof: ragged sibling digest");
    support::append(out, d.view());
  }
  return out;
}

std::optional<MtreeProof> MtreeProof::parse(support::ByteView wire, std::size_t& pos) {
  const auto remaining = [&] { return wire.size() - pos; };
  const auto read_u32 = [&](std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = support::get_u32_be(wire.subspan(pos, 4));
    pos += 4;
    return true;
  };
  MtreeProof proof;
  std::uint32_t hash_raw = 0;
  std::uint32_t digest_size = 0;
  if (!read_u32(proof.first_leaf) || !read_u32(proof.leaf_count) ||
      !read_u32(proof.total_leaves) || !read_u32(hash_raw) || !read_u32(digest_size)) {
    return std::nullopt;
  }
  proof.hash = static_cast<crypto::HashKind>(hash_raw);
  // The width must be the kind's (0 for an unknown kind): serialize() —
  // which the report MAC check runs — refuses anything else.
  if (digest_size == 0 || digest_size != crypto::hash_digest_size(proof.hash)) {
    return std::nullopt;
  }
  // Bound counts by the bytes actually present before reserving anything.
  if (proof.leaf_count == 0 ||
      remaining() / digest_size < proof.leaf_count) {
    return std::nullopt;
  }
  proof.leaves.resize(proof.leaf_count);
  for (Digest& d : proof.leaves) {
    d.assign(wire.subspan(pos, digest_size));
    pos += digest_size;
  }
  if (remaining() / 8 < proof.leaf_count) return std::nullopt;
  proof.generations.resize(proof.leaf_count);
  for (std::uint64_t& g : proof.generations) {
    g = support::get_u64_be(wire.subspan(pos, 8));
    pos += 8;
  }
  std::uint32_t sibling_count = 0;
  if (!read_u32(sibling_count)) return std::nullopt;
  if (remaining() / digest_size < sibling_count) return std::nullopt;
  proof.siblings.resize(sibling_count);
  for (Digest& d : proof.siblings) {
    d.assign(wire.subspan(pos, digest_size));
    pos += digest_size;
  }
  return proof;
}

}  // namespace rasc::mtree
