#include "src/attest/measurement.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/attest/golden.hpp"
#include "src/crypto/lanes.hpp"

namespace rasc::attest {

namespace {

/// Domain-separated CBC-MAC key for the encryption-based per-block F
/// (separated from the combiner key).
support::Bytes derive_block_key(support::ByteView key) {
  return support::concat({key, support::to_bytes("/block")});
}

/// A miss the cache will store once it is digested.
struct PendingStore {
  std::size_t block;
  std::uint64_t generation;
};

/// The views of one batch (a visit's misses, a digest_batch call's
/// outputs), per thread rather than per measurement, so a per-device
/// object keeps its size.  Grown to the largest batch the thread has
/// digested and never shrunk, so a warm round allocates nothing; only
/// growth value-initializes entries, never a call.
struct MissSet {
  std::vector<support::ByteView> contents;
  std::vector<support::MutableByteView> outs;
  std::vector<PendingStore> stores;
};

MissSet& miss_set(std::size_t capacity) {
  thread_local MissSet set;
  if (set.outs.size() < capacity) {
    set.contents.resize(capacity);
    set.outs.resize(capacity);
    set.stores.resize(capacity);
  }
  return set;
}

}  // namespace

BlockDigester::BlockDigester(MacKind mac, crypto::HashKind hash, support::ByteView key)
    : mac_(mac), hash_kind_(hash) {
  if (mac_ == MacKind::kHmac) {
    digest_size_ = crypto::hash_digest_size(hash);
  } else {
    // Derived once here instead of per block.
    auto block_key = derive_block_key(key);
    engine_.emplace(MacKind::kCbcMac, hash, block_key);
    support::secure_wipe(block_key);
    digest_size_ = engine_->tag_size();
  }
}

bool BlockDigester::batch_uses_lanes() const noexcept {
  return mac_ == MacKind::kHmac && crypto::lanes_supported(hash_kind_);
}

void BlockDigester::digest(support::ByteView block, Digest& out) {
  const support::MutableByteView view = out.prepare(digest_size_);
  digest_into({&block, 1}, {&view, 1});
}

void BlockDigester::digest_batch(std::span<const support::ByteView> blocks,
                                 std::span<Digest* const> outs) {
  if (blocks.size() != outs.size()) {
    throw std::invalid_argument("digest_batch: blocks/outs size mismatch");
  }
  MissSet& scratch = miss_set(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    scratch.outs[i] = outs[i]->prepare(digest_size_);
  }
  digest_into(blocks, {scratch.outs.data(), outs.size()});
}

void BlockDigester::digest_into(std::span<const support::ByteView> blocks,
                                std::span<const support::MutableByteView> outs) {
  if (mac_ == MacKind::kHmac) return crypto::digest_many(hash_kind_, blocks, outs);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    engine_->update(blocks[i]);
    engine_->finalize_into(outs[i]);
  }
}

Measurement::Measurement(const sim::DeviceMemory& memory, crypto::HashKind hash,
                         support::ByteView key, MeasurementContext context,
                         Coverage coverage, MacKind mac)
    : memory_(memory),
      hash_(hash),
      key_(key.begin(), key.end()),
      context_(std::move(context)),
      mac_(mac),
      digester_(mac, hash, key) {
  reseat(hash, key, coverage, mac);
}

void Measurement::reseat(crypto::HashKind hash, support::ByteView key, Coverage coverage,
                         MacKind mac) {
  const std::size_t n = coverage.resolve_count(memory_);
  if (coverage.first_block + n > memory_.block_count()) {
    throw std::out_of_range("Measurement coverage exceeds memory");
  }
  if (hash != hash_ || mac != mac_ || !std::ranges::equal(key, key_)) {
    digester_ = BlockDigester(mac, hash, key);
    key_.assign(key.begin(), key.end());
    hash_ = hash;
    mac_ = mac;
  }
  coverage_ = coverage;
  cache_ = nullptr;
  journal_ = nullptr;
  journal_actor_ = 0;
  key_fp_ = 0;
  block_digests_.assign(n, {});
  visit_times_.assign(n, std::nullopt);
  visited_count_ = 0;
}

void Measurement::restart(MeasurementContext context) {
  context_ = std::move(context);
  visit_times_.assign(block_digests_.size(), std::nullopt);
  visited_count_ = 0;
}

void Measurement::set_digest_cache(DigestCache* cache) {
  set_digest_cache(cache, cache != nullptr ? DigestCache::key_fingerprint(key_) : 0);
}

void Measurement::visit_block(std::size_t block, sim::Time now) {
  visit_block(block, now, memory_.block_view(block));
}

void Measurement::visit_block(std::size_t block, sim::Time now,
                              support::ByteView content) {
  visit_blocks_impl({&block, 1}, now, {&content, 1});
}

void Measurement::visit_blocks(std::span<const std::size_t> blocks, sim::Time now) {
  visit_blocks_impl(blocks, now, {});
}

void Measurement::visit_blocks(std::span<const std::size_t> blocks, sim::Time now,
                               std::span<const support::ByteView> contents) {
  if (contents.size() != blocks.size()) {
    throw std::invalid_argument("visit_blocks: blocks/contents size mismatch");
  }
  visit_blocks_impl(blocks, now, contents);
}

void Measurement::visit_blocks_impl(std::span<const std::size_t> blocks, sim::Time now,
                                    std::span<const support::ByteView> contents) {
  // Classification in caller order: bookkeeping, cache lookups and journal
  // events happen here, block by block.  The misses are then digested in
  // one batch and stored in the same order; blocks are distinct, so no
  // lookup of this call could have seen one of its stores.
  MissSet& misses = miss_set(blocks.size());
  std::size_t missed = 0;
  std::size_t stored = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::size_t block = blocks[i];
    if (block < coverage_.first_block ||
        block >= coverage_.first_block + block_digests_.size()) {
      throw std::out_of_range("visit_block outside coverage");
    }
    const support::ByteView content =
        contents.empty() ? memory_.block_view(block) : contents[i];
    const std::size_t rel = block - coverage_.first_block;
    if (!visit_times_[rel]) ++visited_count_;
    visit_times_[rel] = now;

    // The cache is keyed on live-memory generations, so it only applies
    // when the content being digested IS the live block (snapshot-based
    // lock policies redirect reads to their copy and bypass it here).
    const bool live = cache_ != nullptr && content.size() == memory_.block_size() &&
                      content.data() == memory_.block_view(block).data();
    if (live) {
      const std::uint64_t generation = memory_.block_generation(block);
      if (const Digest* hit = cache_->lookup(block, generation, hash_, mac_, key_fp_)) {
        if (journal_ != nullptr) {
          journal_->append(now, journal_actor_, 0, 0, obs::JournalEventKind::kCacheHit,
                           block, generation);
        }
        block_digests_[rel] = *hit;
        continue;
      }
      if (journal_ != nullptr) {
        journal_->append(now, journal_actor_, 0, 0, obs::JournalEventKind::kCacheMiss,
                         block, generation);
      }
      misses.stores[stored++] = {block, generation};
    }
    misses.contents[missed] = content;
    misses.outs[missed] = block_digests_[rel].prepare(digester_.digest_size());
    ++missed;
  }
  digester_.digest_into({misses.contents.data(), missed}, {misses.outs.data(), missed});
  for (std::size_t i = 0; i < stored; ++i) {
    const PendingStore& s = misses.stores[i];
    cache_->store(s.block, s.generation, hash_, mac_, key_fp_,
                  block_digests_[s.block - coverage_.first_block]);
  }
}

support::Bytes Measurement::block_digest(MacKind mac, crypto::HashKind hash,
                                         support::ByteView key,
                                         support::ByteView block) {
  BlockDigester digester(mac, hash, key);
  Digest out;
  digester.digest(block, out);
  return out.to_bytes();
}

namespace {

/// Feed the context header shared by both combiners into `mac` (a
/// MacEngine or a keyed SHA-256).
template <class Mac>
void feed_header(Mac& mac, const MeasurementContext& context) {
  std::uint8_t word[8];
  mac.update(support::bytes_of(context.device_id));
  support::put_u32_be(word, static_cast<std::uint32_t>(context.challenge.size()));
  mac.update(support::ByteView(word, 4));
  mac.update(context.challenge);
  support::put_u64_be(word, context.counter);
  mac.update(word);
}

/// Digests per gathered run: 2 KiB of SHA-256 digests, 4 KiB of SHA-512.
constexpr std::size_t kGatherRun = 64;

/// Feed `digests` into `mac` as runs of up to kGatherRun copied side by
/// side, one update per run: the MAC sees the same bytes as from one
/// update per digest, in far fewer calls.  Each copy is of the
/// compile-time size kSize (a memcpy of a runtime length compiles to a
/// slow `rep movs`); a digest of another size flushes the run and goes
/// alone.
template <std::size_t kSize, class Mac>
void feed_gathered(Mac& mac, const std::vector<Digest>& digests) {
  std::uint8_t run[kGatherRun * kSize];
  std::size_t filled = 0;
  const auto flush = [&] {
    if (filled != 0) mac.update(support::ByteView(run, filled * kSize));
    filled = 0;
  };
  for (const Digest& d : digests) {
    if (d.size() != kSize) {
      flush();
      mac.update(d.view());
      continue;
    }
    std::memcpy(run + filled * kSize, d.data(), kSize);
    if (++filled == kGatherRun) flush();
  }
  flush();
}

/// Feed `digests` at the size of the first (every digest of a measurement
/// or golden has its F's size).
template <class Mac>
void feed_digests(Mac& mac, const std::vector<Digest>& digests) {
  switch (digests.empty() ? 0 : digests.front().size()) {
    case 16: return feed_gathered<16>(mac, digests);  // AES-CBC-MAC
    case 32: return feed_gathered<32>(mac, digests);  // SHA-256, BLAKE2s
    case 64: return feed_gathered<64>(mac, digests);  // SHA-512, BLAKE2b
    default:
      for (const Digest& d : digests) mac.update(d.view());
  }
}

/// Run `feed` over the MAC F selects and return the tag: HMAC-SHA-256
/// from `key_schedule` (derived from `key` when null), anything else
/// through a MacEngine.
template <class Feed>
Digest keyed_tag(crypto::HashKind hash, support::ByteView key, MacKind mac_kind,
                 const crypto::HmacSha256Key* key_schedule, Feed&& feed) {
  Digest tag;
  if (mac_kind == MacKind::kHmac && hash == crypto::HashKind::kSha256) {
    const crypto::HmacSha256Key derived =
        key_schedule != nullptr ? *key_schedule : crypto::HmacSha256Key(key);
    crypto::Sha256 inner = derived.begin();
    feed(inner);
    derived.finish(inner, tag.prepare(crypto::HmacSha256Key::kTagSize));
    return tag;
  }
  MacEngine mac(mac_kind, hash, key);
  feed(mac);
  mac.finalize_into(tag.prepare(mac.tag_size()));
  return tag;
}

}  // namespace

Digest Measurement::combine(const std::vector<Digest>& digests, crypto::HashKind hash,
                            support::ByteView key, const MeasurementContext& context,
                            MacKind mac_kind, const crypto::HmacSha256Key* key_schedule) {
  return keyed_tag(hash, key, mac_kind, key_schedule, [&](auto& mac) {
    feed_header(mac, context);
    std::uint8_t count[8];
    support::put_u64_be(count, digests.size());
    mac.update(count);
    feed_digests(mac, digests);
  });
}

Digest Measurement::combine_root(support::ByteView tree_root, crypto::HashKind hash,
                                 support::ByteView key, const MeasurementContext& context,
                                 MacKind mac_kind,
                                 const crypto::HmacSha256Key* key_schedule) {
  return keyed_tag(hash, key, mac_kind, key_schedule, [&](auto& mac) {
    mac.update(support::bytes_of("mtree-root/v1"));
    feed_header(mac, context);
    mac.update(tree_root);
  });
}

Digest Measurement::finalize_tag(const crypto::HmacSha256Key* key_schedule) const {
  if (!complete()) throw std::logic_error("Measurement::finalize before all blocks visited");
  return combine(block_digests_, hash_, key_, context_, mac_, key_schedule);
}

support::Bytes Measurement::expected(support::ByteView image, std::size_t block_size,
                                     crypto::HashKind hash, support::ByteView key,
                                     const MeasurementContext& context, MacKind mac) {
  return GoldenMeasurement(image, block_size, hash, key, mac).expected(context);
}

}  // namespace rasc::attest
