#pragma once
/// \file sha512.hpp
/// SHA-512 (FIPS 180-4), streaming implementation.

#include <array>
#include <cstdint>

#include "src/crypto/hash.hpp"

namespace rasc::crypto {

class Sha512 final : public Hash {
 public:
  static constexpr std::size_t kDigestSize = 64;
  static constexpr std::size_t kBlockSize = 128;

  Sha512() { reset(); }

  void update(support::ByteView data) override;
  void finalize_into(support::MutableByteView out) override;
  std::size_t digest_size() const noexcept override { return kDigestSize; }
  std::size_t block_size() const noexcept override { return kBlockSize; }
  std::unique_ptr<Hash> clone() const override { return std::make_unique<Sha512>(*this); }
  void assign(const Hash& other) override { *this = dynamic_cast<const Sha512&>(other); }
  void reset() override;

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint64_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_len_ = 0;  // bytes; 2^64-1 bytes is ample for our use
};

}  // namespace rasc::crypto
