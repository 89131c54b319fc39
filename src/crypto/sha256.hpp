#pragma once
/// \file sha256.hpp
/// SHA-256 (FIPS 180-4), streaming implementation, and the block kernel
/// every SHA-256 in the library runs its whole blocks through.

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
  ChainingValue state_{};
  /// Only the first buffered_ bytes are ever read, so it is left
  /// uninitialized: a zero-fill would cost every HMAC tag two stores.
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_len_ = 0;
};

/// True when the SHA-NI translation unit is compiled in (x86 toolchain
/// that accepts -msha -msse4.1, RASC_ENABLE_SIMD=ON).
bool sha256_hardware_compiled() noexcept;

/// True when the SHA-NI kernel is compiled in AND the CPU reports the SHA
/// extensions; then every whole block goes through it.  Checked once per
/// process.
bool sha256_hardware_active() noexcept;

/// The active block kernel, for bench headers: "sha-ni" or "portable".
const char* sha256_kernel_name() noexcept;

namespace detail {

/// Compress the `nblocks` whole 64-byte blocks at `p` into `state` on the
/// active kernel: SHA-NI when sha256_hardware_active(), else the portable
/// sha256_compress loop.  Sha256::update hands every run of blocks here.
void sha256_blocks(std::uint32_t state[8], const std::uint8_t* p,
                   std::size_t nblocks) noexcept;

/// Two independent streams of `nblocks` blocks each: the 2-way interleaved
/// SHA-NI kernel when active, else sha256_blocks on each.
void sha256_blocks_x2(std::uint32_t state_a[8], std::uint32_t state_b[8],
                      const std::uint8_t* pa, const std::uint8_t* pb,
                      std::size_t nblocks) noexcept;

}  // namespace detail

}  // namespace rasc::crypto
