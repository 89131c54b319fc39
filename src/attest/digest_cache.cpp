#include "src/attest/digest_cache.hpp"

#include "src/crypto/sha256.hpp"
#include "src/support/bytes.hpp"

namespace rasc::attest {

void DigestCache::resize(std::size_t block_count) {
  if (slots_.size() != block_count) slots_.resize(block_count);
}

const Digest* DigestCache::lookup(std::size_t block, std::uint64_t generation,
                                  crypto::HashKind hash, MacKind mac,
                                  std::uint64_t key_fp) {
  const Slot* slot = block < slots_.size() ? &slots_[block] : nullptr;
  if (slot != nullptr && slot->valid && slot->generation == generation &&
      slot->hash == hash && slot->mac == mac && slot->key_fp == key_fp) {
    ++hits_;
    return &slot->digest;
  }
  ++misses_;
  return nullptr;
}

void DigestCache::store(std::size_t block, std::uint64_t generation,
                        crypto::HashKind hash, MacKind mac, std::uint64_t key_fp,
                        const Digest& digest) {
  if (block >= slots_.size()) return;  // cache sized for a smaller coverage
  Slot& slot = slots_[block];
  slot.valid = true;
  slot.generation = generation;
  slot.hash = hash;
  slot.mac = mac;
  slot.key_fp = key_fp;
  slot.digest = digest;
  ++stores_;
}

void DigestCache::invalidate_block(std::size_t block, obs::TimeNs now) {
  if (block >= slots_.size()) return;
  const bool flushed = slots_[block].valid;
  slots_[block].valid = false;
  if (journal_ != nullptr) {
    journal_->append(now, journal_actor_, 0, 0, obs::JournalEventKind::kCacheInvalidate,
                     block, flushed ? 1 : 0);
  }
}

void DigestCache::invalidate_all(obs::TimeNs now) {
  std::uint64_t flushed = 0;
  for (Slot& slot : slots_) {
    if (slot.valid) ++flushed;
    slot.valid = false;
  }
  if (journal_ != nullptr) {
    journal_->append(now, journal_actor_, 0, 0, obs::JournalEventKind::kCacheInvalidate,
                     ~0ull, flushed);
  }
}

std::uint64_t DigestCache::key_fingerprint(support::ByteView key) {
  crypto::Sha256 sha;
  std::uint8_t digest[crypto::Sha256::kDigestSize];
  sha.update(key);
  sha.finalize_into(digest);
  return support::get_u64_be(digest);
}

}  // namespace rasc::attest
