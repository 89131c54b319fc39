#include "src/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/sha256_core.hpp"

namespace rasc::crypto {

void Sha256::reset() {
  state_ = std::to_array(detail::kSha256Iv);
  buffered_ = 0;
  total_len_ = 0;
}

void Sha256::compress(const std::uint8_t* block) {
  detail::sha256_compress(state_.data(), block);
}

void Sha256::update(support::ByteView data) {
  if (data.empty()) return;  // empty spans may carry a null data()
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == kBlockSize) {
      compress(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    compress(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha256::finalize_into(support::MutableByteView out) {
  if (out.size() < kDigestSize) {
    throw std::invalid_argument("Sha256::finalize_into: output buffer too small");
  }
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  // Pad to 56 mod 64, then append the 64-bit big-endian length.
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (kBlockSize + 56 - buffered_);
  update(support::ByteView(pad, pad_len));
  std::uint8_t len_be[8];
  support::put_u64_be(len_be, bit_len);
  update(support::ByteView(len_be, 8));

  for (int i = 0; i < 8; ++i) {
    support::put_u32_be(support::MutableByteView(out.data() + 4 * i, 4), state_[i]);
  }
  reset();
}

}  // namespace rasc::crypto
