#include "src/crypto/blake2s.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/blake2s_core.hpp"

namespace rasc::crypto {

Blake2s::Blake2s(support::ByteView key) : key_(key.begin(), key.end()) {
  if (key.size() > kMaxKeySize) throw std::invalid_argument("BLAKE2s key too long");
  reset();
}

void Blake2s::init(std::size_t key_len) {
  h_ = std::to_array(detail::kBlake2sIv);
  h_[0] ^= 0x01010000u ^ (static_cast<std::uint32_t>(key_len) << 8) ^
           static_cast<std::uint32_t>(kDigestSize);
  buffered_ = 0;
  t_ = 0;
}

void Blake2s::reset() {
  init(key_.size());
  if (!key_.empty()) {
    buffer_.fill(0);
    std::memcpy(buffer_.data(), key_.data(), key_.size());
    buffered_ = kBlockSize;
  }
}

void Blake2s::compress(bool last) {
  detail::blake2s_compress(h_.data(), buffer_.data(), t_, last);
}

void Blake2s::update(support::ByteView data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    if (buffered_ == kBlockSize) {
      t_ += kBlockSize;
      compress(/*last=*/false);
      buffered_ = 0;
    }
    const std::size_t take = std::min(kBlockSize - buffered_, data.size() - offset);
    std::memcpy(buffer_.data() + buffered_, data.data() + offset, take);
    buffered_ += take;
    offset += take;
  }
}

void Blake2s::finalize_into(support::MutableByteView out) {
  if (out.size() < kDigestSize) {
    throw std::invalid_argument("Blake2s::finalize_into: output buffer too small");
  }
  t_ += buffered_;
  std::memset(buffer_.data() + buffered_, 0, kBlockSize - buffered_);
  compress(/*last=*/true);

  for (int i = 0; i < 8; ++i) {
    support::put_u32_le(support::MutableByteView(out.data() + 4 * i, 4), h_[i]);
  }
  reset();
}

}  // namespace rasc::crypto
