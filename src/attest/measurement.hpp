#pragma once
/// \file measurement.hpp
/// The integrity-ensuring function F at the heart of the measurement
/// process MP (paper Section 2.2).  Memory is measured block-by-block:
/// each visited block yields a per-block digest recorded at visit time;
/// finalize() combines the per-block digests *in index order* under an
/// HMAC keyed with the attestation key and bound to the challenge, device
/// id and counter.
///
/// Recording per-block digests makes the result independent of traversal
/// order, which is what lets one code path serve sequential, atomic and
/// SMARM-shuffled measurements (and is the "additional memory to store the
/// permutation/state" cost the paper attributes to SMARM).
///
/// Hot-path design (PR 4): per-block digests are fixed-capacity Digest
/// values (no heap allocation per block), the CBC-MAC derived block key
/// is computed once at construction, the per-block hash/MAC engine is
/// reused across blocks, and — when a DigestCache is attached — blocks
/// whose generation counter is unchanged since their digest was last
/// computed are served from the cache, bit-identically.

#include <optional>
#include <vector>

#include "src/attest/digest.hpp"
#include "src/attest/digest_cache.hpp"
#include "src/attest/mac_engine.hpp"
#include "src/obs/journal.hpp"
#include "src/crypto/hash.hpp"
#include "src/crypto/hmac.hpp"
#include "src/sim/memory.hpp"
#include "src/support/bytes.hpp"

namespace rasc::attest {

/// Coverage descriptor: which blocks of prover memory are attested.
struct Coverage {
  std::size_t first_block = 0;
  std::size_t block_count = 0;  ///< 0 = all blocks from first_block

  std::size_t resolve_count(const sim::DeviceMemory& mem) const {
    return block_count == 0 ? mem.block_count() - first_block : block_count;
  }
};

/// Header binding a measurement to its context.
struct MeasurementContext {
  std::string device_id;
  Challenge challenge;         ///< Vrf nonce (empty for self-measurements)
  std::uint64_t counter = 0;   ///< monotonic counter / schedule index
};

/// Reusable per-block digest engine.  Hoists the work that the naive
/// per-block path repeated on every block: the CBC-MAC key derivation
/// (concat(key, "/block")) happens once at construction.  Hash-based F
/// goes through crypto::digest_many, which keeps its hash state on the
/// stack, so the engine holds no hash object.
class BlockDigester {
 public:
  BlockDigester(MacKind mac, crypto::HashKind hash, support::ByteView key);

  /// Digest one block's content into `out` — no heap allocation.
  void digest(support::ByteView block, Digest& out);

  /// Digest many independent blocks at once (blocks[i] -> *outs[i]).
  /// Hash-based F packs them into multi-lane waves (byte-identical to
  /// digest(), enforced in tests); CBC-MAC F loops the scalar engine.
  /// Allocation-free.
  void digest_batch(std::span<const support::ByteView> blocks,
                    std::span<Digest* const> outs);

  std::size_t digest_size() const noexcept { return digest_size_; }

  /// True when digest_batch packs lanes rather than looping a scalar
  /// engine (benchmarks label rows with this).
  bool batch_uses_lanes() const noexcept;

 private:
  MacKind mac_;
  crypto::HashKind hash_kind_;
  std::size_t digest_size_;
  std::optional<MacEngine> engine_;  ///< encryption-based F (keyed CBC-MAC)
};

class Measurement {
 public:
  Measurement(const sim::DeviceMemory& memory, crypto::HashKind hash,
              support::ByteView key, MeasurementContext context, Coverage coverage = {},
              MacKind mac = MacKind::kHmac);

  /// Attach a digest cache (not owned; must outlive the measurement).
  /// Cached digests are consulted only for blocks read from live device
  /// memory (snapshot-redirected reads bypass the cache) and only when
  /// the block's generation matches — results are bit-identical to the
  /// uncached path.
  void set_digest_cache(DigestCache* cache);

  /// As above with the key's DigestCache::key_fingerprint, computed once
  /// per key by the caller instead of once per measurement.
  void set_digest_cache(DigestCache* cache, std::uint64_t key_fp) noexcept {
    cache_ = cache;
    key_fp_ = key_fp;
  }

  /// Attach a flight-recorder journal (not owned; nullptr to detach):
  /// cache hits and misses are then journaled under `actor` with the
  /// visit time.  One null-check branch when detached — the measurement
  /// hot path stays allocation-free either way.
  void set_journal(obs::EventJournal* journal, std::uint32_t actor) noexcept {
    journal_ = journal;
    journal_actor_ = actor;
  }

  /// Digest one block (index relative to memory, must lie inside the
  /// coverage).  May be called in any order; re-visiting overwrites the
  /// previous digest and records the new visit time.
  void visit_block(std::size_t block, sim::Time now);

  /// As above but digesting the supplied content instead of live memory
  /// (snapshot-based locking redirects reads through the policy).
  void visit_block(std::size_t block, sim::Time now, support::ByteView content);

  /// Batch visitation: exactly equivalent to calling visit_block(b, now)
  /// for each b in order — same cache lookups, same journal events in the
  /// same order, same stored digests — but cache misses are digested in
  /// multi-lane waves through BlockDigester::digest_batch.  Callers that
  /// already know their dirty set (tree-mode collect/flush, golden
  /// pre-digesting, fleet shard waves) use this instead of the scalar
  /// loop.  Blocks must be distinct within one call.
  void visit_blocks(std::span<const std::size_t> blocks, sim::Time now);

  /// As above with per-block content redirection (contents[i] is digested
  /// for blocks[i]; snapshot views bypass the cache exactly as in the
  /// scalar overload).
  void visit_blocks(std::span<const std::size_t> blocks, sim::Time now,
                    std::span<const support::ByteView> contents);

  /// Number of blocks visited so far / total to visit.
  std::size_t visited() const noexcept { return visited_count_; }
  std::size_t total_blocks() const noexcept { return block_digests_.size(); }
  bool complete() const noexcept { return visited_count_ == block_digests_.size(); }

  /// Digest recorded for `block` (absolute index) by a prior visit_block.
  /// The tree-mode prover routes per-block digests through visit_block —
  /// so the cache and journal behave identically to flat mode — then
  /// reads them back here to feed the Merkle tree.
  const Digest& visited_digest(std::size_t block) const {
    return block_digests_.at(block - coverage_.first_block);
  }

  /// Visit times per covered block (for the consistency analyzer);
  /// nullopt for unvisited blocks.
  const std::vector<std::optional<sim::Time>>& visit_times() const noexcept {
    return visit_times_;
  }

  /// Combine per-block digests into the final authenticated measurement.
  /// Requires complete(); throws std::logic_error otherwise.
  /// `key_schedule` is as for combine().
  Digest finalize_tag(const crypto::HmacSha256Key* key_schedule = nullptr) const;
  /// finalize_tag() as bytes.
  support::Bytes finalize(const crypto::HmacSha256Key* key_schedule = nullptr) const {
    return finalize_tag(key_schedule).to_bytes();
  }

  /// Begin another measurement of the same memory, key and coverage under
  /// `context`: every block is unvisited again, and the digest table and
  /// visit-time storage are reused, so a kept measurement allocates
  /// nothing per round.  Cache and journal attachments stay.
  void restart(MeasurementContext context);

  const MeasurementContext& context() const noexcept { return context_; }

  /// Exchange the visit-time buffer with `other` (the prover's result
  /// takes it at the end of a round and hands it back at the next start).
  void swap_visit_times(std::vector<std::optional<sim::Time>>& other) noexcept {
    visit_times_.swap(other);
  }

  const Coverage& coverage() const noexcept { return coverage_; }
  crypto::HashKind hash_kind() const noexcept { return hash_; }
  MacKind mac_kind() const noexcept { return mac_; }

  /// The expected measurement for a golden memory image (what the verifier
  /// compares against): a one-off GoldenMeasurement's.  `image` must be
  /// block_size * n bytes.  Per-context cost is O(image); a verifier
  /// validating many reports against one image holds the golden instead.
  static support::Bytes expected(support::ByteView image, std::size_t block_size,
                                 crypto::HashKind hash, support::ByteView key,
                                 const MeasurementContext& context,
                                 MacKind mac = MacKind::kHmac);

  /// Per-block digest primitive: an (unkeyed) hash for the hash-based F,
  /// or a keyed AES-CBC-MAC for the encryption-based F of Section 2.4.
  static support::Bytes block_digest(MacKind mac, crypto::HashKind hash,
                                     support::ByteView key, support::ByteView block);

  /// Combine per-block digests (index order) into the authenticated
  /// measurement.  Shared by finalize_tag(), expected() and
  /// GoldenMeasurement.  `key_schedule`, when given, is the held
  /// HMAC-SHA-256 schedule of `key`: HMAC-SHA-256 F tags from it instead of
  /// deriving one (other F ignore it).
  static Digest combine(const std::vector<Digest>& digests, crypto::HashKind hash,
                        support::ByteView key, const MeasurementContext& context,
                        MacKind mac, const crypto::HmacSha256Key* key_schedule = nullptr);

  /// Tree-mode combiner: MAC the context header and the Merkle root
  /// instead of all n block digests — O(1) in the block count, which is
  /// what makes tree-mode finalization constant-cost.  Domain-separated
  /// from combine() by an explicit tag, so a flat measurement can never
  /// collide with a tree measurement over the same memory.
  static Digest combine_root(support::ByteView tree_root, crypto::HashKind hash,
                             support::ByteView key, const MeasurementContext& context,
                             MacKind mac,
                             const crypto::HmacSha256Key* key_schedule = nullptr);

 private:
  const sim::DeviceMemory& memory_;
  crypto::HashKind hash_;
  support::Bytes key_;
  MeasurementContext context_;
  Coverage coverage_;
  MacKind mac_;
  BlockDigester digester_;
  DigestCache* cache_ = nullptr;
  obs::EventJournal* journal_ = nullptr;
  std::uint32_t journal_actor_ = 0;
  std::uint64_t key_fp_ = 0;  ///< computed when a cache is attached
  std::vector<Digest> block_digests_;
  std::vector<std::optional<sim::Time>> visit_times_;
  std::size_t visited_count_ = 0;

  void visit_blocks_impl(std::span<const std::size_t> blocks, sim::Time now,
                         std::span<const support::ByteView> contents);
};

}  // namespace rasc::attest
