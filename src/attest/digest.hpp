#pragma once
/// \file digest.hpp
/// Fixed-capacity byte values for the attestation hot path.  Every digest
/// the library produces fits in 64 bytes (SHA-512 and BLAKE2b are the
/// largest), a challenge in one PRF block and a report MAC in one
/// HMAC-SHA-256 tag, so they are stored inline: no heap per visited block,
/// per challenge, per measurement tag or per report MAC.

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "src/support/bytes.hpp"

namespace rasc::attest {

/// Up to N bytes held inline; a contiguous range, so it converts to
/// support::ByteView wherever a view is taken.
template <std::size_t N>
class FixedBytes {
 public:
  static constexpr std::size_t kMaxSize = N;

  FixedBytes() = default;

  /// Implicit from any byte range (support::Bytes, a view, another
  /// FixedBytes), so fields that held support::Bytes still take them.
  /// Throws std::length_error past N bytes.
  template <class Range>
    requires(!std::same_as<Range, FixedBytes> &&
             std::convertible_to<const Range&, support::ByteView>)
  FixedBytes(const Range& bytes) {
    assign(bytes);
  }

  void assign(support::ByteView bytes) {
    const support::MutableByteView out = prepare(bytes.size());
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }

  /// Set the size and expose a writable window for in-place finalization
  /// (crypto finalize_into writes straight into the stored value).
  support::MutableByteView prepare(std::size_t size) {
    if (size > N) throw std::length_error("FixedBytes: value exceeds its capacity");
    size_ = static_cast<std::uint8_t>(size);
    return support::MutableByteView(data_.data(), size);
  }

  void clear() noexcept { size_ = 0; }

  support::ByteView view() const noexcept { return {data_.data(), size_}; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::uint8_t* data() const noexcept { return data_.data(); }
  const std::uint8_t* begin() const noexcept { return data_.data(); }
  const std::uint8_t* end() const noexcept { return data_.data() + size_; }
  std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }

  support::Bytes to_bytes() const { return support::Bytes(begin(), end()); }

  friend bool operator==(const FixedBytes& a, const FixedBytes& b) noexcept {
    return std::ranges::equal(a.view(), b.view());
  }

 private:
  static_assert(N <= 255, "the size is held in one byte");
  std::array<std::uint8_t, N> data_{};
  std::uint8_t size_ = 0;
};

/// A per-block digest, or a measurement tag (the keyed combine of them).
using Digest = FixedBytes<64>;
/// A verifier challenge: at most one PRF block (Verifier::kMaxChallengeSize).
using Challenge = FixedBytes<32>;
/// A report MAC: one HMAC-SHA-256 tag.
using ReportMac = FixedBytes<32>;

}  // namespace rasc::attest
