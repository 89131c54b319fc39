#pragma once
/// \file golden.hpp
/// Immutable pre-digested golden image.  The verifier compares every
/// report against the expected measurement of its golden image; computing
/// that expectation naively rehashes the whole image per report.  A
/// GoldenMeasurement hashes every block exactly once at construction and
/// then serves expected() for any context with only the O(blocks)
/// combiner MAC — the per-block digests are context-independent.
///
/// The object is deeply immutable after construction, so one instance can
/// be shared by const reference across campaign trial workers (computed
/// once per campaign *cell*, not once per trial) — concurrent expected()
/// calls are thread-safe because each builds its own combiner MAC state
/// (from the key schedule derived once at construction).

#include <cstdint>
#include <optional>
#include <vector>

#include "src/attest/measurement.hpp"
#include "src/mtree/mtree.hpp"

namespace rasc::attest {

class GoldenMeasurement {
 public:
  /// Digest `image` (block_size * n bytes) once.  Throws
  /// std::invalid_argument on a ragged image.
  GoldenMeasurement(support::ByteView image, std::size_t block_size,
                    crypto::HashKind hash, support::ByteView key,
                    MacKind mac = MacKind::kHmac);

  /// Expected measurement for a context — combiner MAC only, no hashing.
  /// Bit-identical to Measurement::expected on the same image.
  Digest expected_tag(const MeasurementContext& context) const;
  /// expected_tag() as bytes.
  support::Bytes expected(const MeasurementContext& context) const {
    return expected_tag(context).to_bytes();
  }

  /// Expected *tree-mode* measurement for a context: the MAC of the
  /// golden Merkle root under the context header
  /// (Measurement::combine_root).  Bit-identical to what a tree-mode
  /// prover over pristine memory produces.
  Digest expected_tree(const MeasurementContext& context) const;

  /// The key, its schedule and DigestCache::key_fingerprint, derived once
  /// for every stack that shares this golden.
  const support::Bytes& key() const noexcept { return key_; }
  const crypto::HmacSha256Key& key_schedule() const noexcept { return key_schedule_; }
  std::uint64_t key_fingerprint() const noexcept { return key_fingerprint_; }

  std::size_t block_count() const noexcept { return digests_.size(); }
  std::size_t block_size() const noexcept { return block_size_; }
  crypto::HashKind hash_kind() const noexcept { return hash_; }
  MacKind mac_kind() const noexcept { return mac_; }
  const Digest& block_digest(std::size_t block) const { return digests_.at(block); }
  /// All per-block digests in block order — the fleet verifier primes a
  /// whole shard wave of tree-mode provers from these
  /// (AttestationProcess::prime_tree_from) instead of re-digesting the
  /// identical provisioned image once per device.
  const std::vector<Digest>& block_digests() const noexcept { return digests_; }

  /// Golden Merkle tree over the per-block digests, built once at
  /// construction like the digests themselves.  The root is what shard /
  /// fleet aggregation combines, and the interior nodes are what the
  /// verifier-side memory accounting charges per shard.
  const mtree::MerkleTree& tree() const noexcept { return *tree_; }
  support::Bytes tree_root() const { return tree_->root_bytes(); }
  std::size_t tree_memory_bytes() const noexcept { return tree_->memory_bytes(); }

 private:
  crypto::HashKind hash_;
  MacKind mac_;
  support::Bytes key_;
  crypto::HmacSha256Key key_schedule_;  ///< of key_: HMAC-SHA-256 F, report MACs
  std::uint64_t key_fingerprint_;       ///< DigestCache::key_fingerprint(key_)
  std::size_t block_size_;
  std::vector<Digest> digests_;
  std::optional<mtree::MerkleTree> tree_;  ///< engaged in every constructor
};

}  // namespace rasc::attest
