#include "src/attest/golden.hpp"

#include <stdexcept>

#include "src/attest/digest_cache.hpp"

namespace rasc::attest {

GoldenMeasurement::GoldenMeasurement(support::ByteView image, std::size_t block_size,
                                     crypto::HashKind hash, support::ByteView key,
                                     MacKind mac)
    : hash_(hash),
      mac_(mac),
      key_(key.begin(), key.end()),
      key_schedule_(key),
      key_fingerprint_(DigestCache::key_fingerprint(key)),
      block_size_(block_size) {
  if (block_size == 0 || image.size() % block_size != 0) {
    throw std::invalid_argument("golden image size must be a multiple of block_size");
  }
  const std::size_t n = image.size() / block_size;
  BlockDigester digester(mac, hash, key);
  digests_.resize(n);
  std::vector<support::ByteView> views;
  std::vector<Digest*> outs;
  views.reserve(n);
  outs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    views.push_back(image.subspan(i * block_size, block_size));
    outs.push_back(&digests_[i]);
  }
  digester.digest_batch(views, outs);
  tree_.emplace(n, hash);
  for (std::size_t i = 0; i < n; ++i) tree_->set_leaf(i, digests_[i]);
  tree_->flush();
}

Digest GoldenMeasurement::expected_tag(const MeasurementContext& context) const {
  return Measurement::combine(digests_, hash_, key_, context, mac_, &key_schedule_);
}

Digest GoldenMeasurement::expected_tree(const MeasurementContext& context) const {
  return Measurement::combine_root(tree_->root(), hash_, key_, context, mac_,
                                   &key_schedule_);
}

}  // namespace rasc::attest
