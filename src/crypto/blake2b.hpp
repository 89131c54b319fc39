#pragma once
/// \file blake2b.hpp
/// BLAKE2b (RFC 7693) with 512-bit digest; optionally keyed.  The paper
/// singles out BLAKE2b/BLAKE2s as "well suited for embedded systems".

#include <array>
#include <cstdint>

#include "src/crypto/hash.hpp"

namespace rasc::crypto {

class Blake2b final : public Hash {
 public:
  static constexpr std::size_t kDigestSize = 64;
  static constexpr std::size_t kBlockSize = 128;
  static constexpr std::size_t kMaxKeySize = 64;

  /// Unkeyed 512-bit BLAKE2b.
  Blake2b() { reset(); }

  /// Keyed BLAKE2b (prefix-MAC mode per RFC 7693); key <= 64 bytes,
  /// otherwise throws std::invalid_argument.
  explicit Blake2b(support::ByteView key);

  void update(support::ByteView data) override;
  void finalize_into(support::MutableByteView out) override;
  std::size_t digest_size() const noexcept override { return kDigestSize; }
  std::size_t block_size() const noexcept override { return kBlockSize; }
  std::unique_ptr<Hash> clone() const override { return std::make_unique<Blake2b>(*this); }
  void assign(const Hash& other) override { *this = dynamic_cast<const Blake2b&>(other); }
  void reset() override;

 private:
  void init(std::size_t key_len);
  void compress(bool last);

  std::array<std::uint64_t, 8> h_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t t0_ = 0;  // low word of the byte counter
  std::uint64_t t1_ = 0;  // high word of the byte counter
  support::Bytes key_;    // retained so reset() restores keyed state
};

}  // namespace rasc::crypto
