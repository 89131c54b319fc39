#pragma once
/// \file digest_cache.hpp
/// Generation-tracked per-block digest cache.  "On the TOCTOU Problem in
/// Remote Attestation" (RATA) shows that hardware which records *when*
/// memory last changed lets a prover skip rehashing unmodified regions;
/// DeviceMemory models exactly that with per-block generation counters,
/// and this cache turns repeated measurements from O(memory) into
/// O(dirty blocks).
///
/// A cache entry is keyed on (block, generation, hash kind, MAC kind, key
/// fingerprint): a lookup hits only when the block's content generation
/// AND the digest parameters match what produced the stored value, so a
/// hit is bit-identical to recomputing.  Invalidation is therefore
/// implicit: any content change bumps the generation and the stale entry
/// simply never matches again, and a rotated key changes the fingerprint.
/// MPU-rejected writes never bump a generation, so they (correctly) do
/// not invalidate.
///
/// Hit/miss/store counters are kept locally; attest::export_metrics
/// publishes them as "digest_cache.hit" / "digest_cache.miss" /
/// "digest_cache.store".

#include <cstdint>
#include <vector>

#include "src/attest/digest.hpp"
#include "src/attest/mac_engine.hpp"
#include "src/crypto/hash.hpp"

namespace rasc::attest {

class DigestCache {
 public:
  DigestCache() = default;
  explicit DigestCache(std::size_t block_count) { resize(block_count); }

  /// Grow (or shrink) to `block_count` slots.  Existing entries survive a
  /// grow; a shrink drops the tail.  Idempotent at the same size.
  void resize(std::size_t block_count);

  std::size_t block_count() const noexcept { return slots_.size(); }

  /// Returns the cached digest for `block` iff it was stored under the
  /// same (generation, hash, mac, key fingerprint); nullptr on miss.
  /// Counts a hit or a miss either way.
  const Digest* lookup(std::size_t block, std::uint64_t generation,
                       crypto::HashKind hash, MacKind mac, std::uint64_t key_fp);

  /// Record the digest of `block` computed at `generation` under the
  /// given parameters (overwrites any previous entry for the block).
  void store(std::size_t block, std::uint64_t generation, crypto::HashKind hash,
             MacKind mac, std::uint64_t key_fp, const Digest& digest);

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t stores() const noexcept { return stores_; }

  /// Stable 64-bit fingerprint of key material (first 8 bytes of its
  /// SHA-256, big-endian) — cache keys never retain the key itself.
  static std::uint64_t key_fingerprint(support::ByteView key);

 private:
  struct Slot {
    bool valid = false;
    std::uint64_t generation = 0;
    crypto::HashKind hash = crypto::HashKind::kSha256;
    MacKind mac = MacKind::kHmac;
    std::uint64_t key_fp = 0;
    Digest digest;
  };

  std::vector<Slot> slots_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
};

}  // namespace rasc::attest
