#pragma once
/// \file sha256.hpp
/// SHA-256 (FIPS 180-4), streaming implementation.

#include <array>
#include <cstdint>

#include "src/crypto/hash.hpp"

namespace rasc::crypto {

class Sha256 final : public Hash {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  /// The eight state words between whole blocks.  An HMAC key schedule
  /// (HmacSha256Key) keeps two of these instead of two hash objects.
  using ChainingValue = std::array<std::uint32_t, 8>;

  Sha256() { reset(); }

  /// Resume at a block boundary: `cv` is the chaining value after
  /// `absorbed` bytes, a multiple of kBlockSize.
  Sha256(const ChainingValue& cv, std::uint64_t absorbed) noexcept
      : state_(cv), total_len_(absorbed) {}

  /// The current chaining value; the full streaming state whenever no
  /// partial block is buffered (after absorbing whole blocks).
  const ChainingValue& chaining_value() const noexcept { return state_; }

  void update(support::ByteView data) override;
  void finalize_into(support::MutableByteView out) override;
  std::size_t digest_size() const noexcept override { return kDigestSize; }
  std::size_t block_size() const noexcept override { return kBlockSize; }
  std::unique_ptr<Hash> clone() const override { return std::make_unique<Sha256>(*this); }
  void assign(const Hash& other) override { *this = dynamic_cast<const Sha256&>(other); }
  void reset() override;

 private:
  void compress(const std::uint8_t* block);

  ChainingValue state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace rasc::crypto
