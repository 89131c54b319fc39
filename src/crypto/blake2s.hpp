#pragma once
/// \file blake2s.hpp
/// BLAKE2s (RFC 7693) with 256-bit digest; optionally keyed.

#include <array>
#include <cstdint>

#include "src/crypto/hash.hpp"

namespace rasc::crypto {

class Blake2s final : public Hash {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::size_t kMaxKeySize = 32;

  Blake2s() { reset(); }

  /// Keyed BLAKE2s; key <= 32 bytes, otherwise throws std::invalid_argument.
  explicit Blake2s(support::ByteView key);

  void update(support::ByteView data) override;
  void finalize_into(support::MutableByteView out) override;
  std::size_t digest_size() const noexcept override { return kDigestSize; }
  std::size_t block_size() const noexcept override { return kBlockSize; }
  std::unique_ptr<Hash> clone() const override { return std::make_unique<Blake2s>(*this); }
  void assign(const Hash& other) override { *this = dynamic_cast<const Blake2s&>(other); }
  void reset() override;

 private:
  void init(std::size_t key_len);
  void compress(bool last);

  std::array<std::uint32_t, 8> h_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t t_ = 0;  // byte counter
  support::Bytes key_;
};

}  // namespace rasc::crypto
