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

std::uint64_t DigestCache::key_fingerprint(support::ByteView key) {
  crypto::Sha256 sha;
  std::uint8_t digest[crypto::Sha256::kDigestSize];
  sha.update(key);
  sha.finalize_into(digest);
  return support::get_u64_be(digest);
}

}  // namespace rasc::attest
