#include "src/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/sha256_core.hpp"

#if defined(RASC_CRYPTO_HAVE_SHANI)
#include "src/crypto/sha256_shani.hpp"
#endif

namespace rasc::crypto {

namespace {

using BlocksFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t) noexcept;

void portable_blocks(std::uint32_t state[8], const std::uint8_t* p,
                     std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, p += Sha256::kBlockSize) detail::sha256_compress(state, p);
}

/// Pad the `rem` (< 64) tail bytes at `p` of a `total`-byte message to 56
/// mod 64, append the 64-bit big-endian bit length, run the last one or two
/// blocks through `blocks` and write the big-endian digest.
void finish_tail(std::uint32_t state[8], const std::uint8_t* p, std::size_t rem,
                 std::uint64_t total, std::uint8_t* out32, BlocksFn blocks) noexcept {
  std::uint8_t tail[2 * Sha256::kBlockSize] = {};
  if (rem > 0) std::memcpy(tail, p, rem);  // p may be null when rem == 0
  tail[rem] = 0x80;
  const std::size_t n = rem < 56 ? 1 : 2;
  support::put_u64_be(support::MutableByteView(tail + n * Sha256::kBlockSize - 8, 8),
                      total * 8);
  blocks(state, tail, n);
  for (int i = 0; i < 8; ++i) {
    support::put_u32_be(support::MutableByteView(out32 + 4 * i, 4), state[i]);
  }
}

}  // namespace

bool sha256_hardware_compiled() noexcept {
#if defined(RASC_CRYPTO_HAVE_SHANI)
  return true;
#else
  return false;
#endif
}

bool sha256_hardware_active() noexcept {
#if defined(RASC_CRYPTO_HAVE_SHANI)
  static const bool active = detail::sha_ni_runtime();
  return active;
#else
  return false;
#endif
}

const char* sha256_kernel_name() noexcept {
  return sha256_hardware_active() ? "sha-ni" : "portable";
}

namespace detail {

void sha256_blocks(std::uint32_t state[8], const std::uint8_t* p,
                   std::size_t nblocks) noexcept {
#if defined(RASC_CRYPTO_HAVE_SHANI)
  if (sha256_hardware_active()) {
    sha256_blocks_shani(state, p, nblocks);
    return;
  }
#endif
  portable_blocks(state, p, nblocks);
}

void sha256_blocks_x2(std::uint32_t state_a[8], std::uint32_t state_b[8],
                      const std::uint8_t* pa, const std::uint8_t* pb,
                      std::size_t nblocks) noexcept {
#if defined(RASC_CRYPTO_HAVE_SHANI)
  if (sha256_hardware_active()) {
    sha256_blocks_shani_x2(state_a, state_b, pa, pb, nblocks);
    return;
  }
#endif
  portable_blocks(state_a, pa, nblocks);
  portable_blocks(state_b, pb, nblocks);
}

void sha256_finish_portable(std::uint32_t state[8], const std::uint8_t* p,
                            std::size_t rem, std::uint64_t total,
                            std::uint8_t* out32) noexcept {
  const std::size_t whole = rem / Sha256::kBlockSize;
  portable_blocks(state, p, whole);
  finish_tail(state, p + whole * Sha256::kBlockSize, rem % Sha256::kBlockSize, total, out32,
              portable_blocks);
}

}  // namespace detail

void Sha256::reset() {
  state_ = std::to_array(detail::kSha256Iv);
  buffered_ = 0;
  total_len_ = 0;
}

void Sha256::update(support::ByteView data) {
  if (data.empty()) return;  // empty spans may carry a null data()
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, n);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    if (buffered_ < kBlockSize) return;
    detail::sha256_blocks(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
    p += take;
    n -= take;
  }
  const std::size_t whole = n / kBlockSize;
  if (whole > 0) detail::sha256_blocks(state_.data(), p, whole);
  buffered_ = n - whole * kBlockSize;
  if (buffered_ > 0) std::memcpy(buffer_.data(), p + whole * kBlockSize, buffered_);
}

void Sha256::finalize_into(support::MutableByteView out) {
  if (out.size() < kDigestSize) {
    throw std::invalid_argument("Sha256::finalize_into: output buffer too small");
  }
  finish_tail(state_.data(), buffer_.data(), buffered_, total_len_, out.data(),
              detail::sha256_blocks);
  reset();
}

}  // namespace rasc::crypto
