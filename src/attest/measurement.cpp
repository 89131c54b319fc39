#include "src/attest/measurement.hpp"

#include <algorithm>
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
  Digest* const outs[] = {&out};
  digest_batch({&block, 1}, outs);
}

void BlockDigester::digest_batch(std::span<const support::ByteView> blocks,
                                 std::span<Digest* const> outs) {
  if (blocks.size() != outs.size()) {
    throw std::invalid_argument("digest_batch: blocks/outs size mismatch");
  }
  if (mac_ != MacKind::kHmac) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      engine_->update(blocks[i]);
      engine_->finalize_into(outs[i]->prepare(digest_size_));
    }
    return;
  }
  // digest_many takes views of the outputs, built here on the stack a
  // chunk at a time.  The chunk is a multiple of every kernel's width, so
  // the packing is the one an unchunked call would choose.
  constexpr std::size_t kChunk = 64;
  support::MutableByteView views[kChunk];
  for (std::size_t at = 0; at < blocks.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, blocks.size() - at);
    for (std::size_t i = 0; i < n; ++i) views[i] = outs[at + i]->prepare(digest_size_);
    crypto::digest_many(hash_kind_, blocks.subspan(at, n), {views, n});
  }
}

Measurement::Measurement(const sim::DeviceMemory& memory, crypto::HashKind hash,
                         support::ByteView key, MeasurementContext context,
                         Coverage coverage, MacKind mac)
    : memory_(memory),
      hash_(hash),
      key_(key.begin(), key.end()),
      context_(std::move(context)),
      coverage_(coverage),
      mac_(mac),
      digester_(mac, hash, key) {
  const std::size_t n = coverage_.resolve_count(memory);
  if (coverage_.first_block + n > memory.block_count()) {
    throw std::out_of_range("Measurement coverage exceeds memory");
  }
  block_digests_.assign(n, {});
  visit_times_.assign(n, std::nullopt);
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
  // events happen here, block by block.  Misses are digested a wave at a
  // time from stack buffers; blocks are distinct, so storing a wave before
  // classifying the next changes no lookup.
  constexpr std::size_t kWave = 64;
  support::ByteView wave_contents[kWave];
  Digest* wave_outs[kWave];
  std::size_t wave_blocks[kWave];
  std::uint64_t wave_generations[kWave];
  bool wave_store[kWave];  ///< false for snapshot content / detached cache
  std::size_t waiting = 0;
  const auto digest_wave = [&] {
    digester_.digest_batch({wave_contents, waiting}, {wave_outs, waiting});
    for (std::size_t i = 0; i < waiting; ++i) {
      if (wave_store[i]) {
        cache_->store(wave_blocks[i], wave_generations[i], hash_, mac_, key_fp_,
                      *wave_outs[i]);
      }
    }
    waiting = 0;
  };

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
    std::uint64_t generation = 0;
    if (live) {
      generation = memory_.block_generation(block);
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
    }
    wave_contents[waiting] = content;
    wave_outs[waiting] = &block_digests_[rel];
    wave_blocks[waiting] = block;
    wave_generations[waiting] = generation;
    wave_store[waiting] = live;
    if (++waiting == kWave) digest_wave();
  }
  if (waiting != 0) digest_wave();
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
    for (const auto& d : digests) mac.update(d.view());
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
