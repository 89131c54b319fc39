#pragma once
/// \file hmac.hpp
/// HMAC (RFC 2104 / FIPS 198-1) over any library hash.  This is the
/// integrity-ensuring function F the paper's measurement process uses for
/// hash-based MACs (e.g. HMAC-SHA-2).
///
/// Both classes here are one construction: the pads K0^ipad and K0^opad
/// are absorbed once per key, and every tag restarts the inner and outer
/// hash from those midstates instead of re-absorbing the pads.
/// HmacSha256Key is the compact form the control plane holds per key
/// (device, verifier, golden, DRBG); Hmac is the streaming form over any
/// HashKind.

#include <memory>

#include "src/crypto/hash.hpp"
#include "src/crypto/sha256.hpp"

namespace rasc::crypto {

/// HMAC-SHA-256 key schedule: SHA-256's chaining values after K0^ipad and
/// after K0^opad.  64 bytes, inline and immutable, so one schedule per key
/// serves every message: a tag over up to 55 bytes costs two compressions
/// and allocates nothing.
class HmacSha256Key {
 public:
  static constexpr std::size_t kTagSize = Sha256::kDigestSize;

  explicit HmacSha256Key(support::ByteView key);

  /// A SHA-256 positioned after K0^ipad: feed it the message, then
  /// finish().
  Sha256 begin() const noexcept { return Sha256(inner_, Sha256::kBlockSize); }

  /// Write the tag of the message fed to `inner` (from begin()) into
  /// `out` (>= kTagSize bytes).
  void finish(Sha256& inner, support::MutableByteView out) const;

  /// One-shot tag of `message` into `out` (>= kTagSize bytes; may alias
  /// `message`).
  void tag(support::ByteView message, support::MutableByteView out) const;

 private:
  Sha256::ChainingValue inner_{};
  Sha256::ChainingValue outer_{};
};

/// Streaming HMAC; clone()-able so interruptible measurements can
/// checkpoint MAC state mid-stream.
class Hmac {
 public:
  Hmac(HashKind kind, support::ByteView key);
  Hmac(const Hmac& other);
  Hmac& operator=(const Hmac& other);
  Hmac(Hmac&&) noexcept = default;
  Hmac& operator=(Hmac&&) noexcept = default;

  void update(support::ByteView data);

  /// Produce the tag and reset to the keyed initial state.
  support::Bytes finalize();

  /// Allocation-free finalize: write the tag into `out` (>= tag_size()
  /// bytes) and reset to the keyed initial state.
  void finalize_into(support::MutableByteView out);

  /// Discard any partial stream and return to the keyed initial state
  /// (reuse across messages without re-deriving the pads).
  void reset();

  std::size_t tag_size() const noexcept { return inner_->digest_size(); }
  HashKind kind() const noexcept { return kind_; }

  /// Allocation-free one-shot reusing this instance's keyed state: tag
  /// `message` into `out` (>= tag_size() bytes) and return to the keyed
  /// initial state.  The reusable counterpart of the static compute().
  void compute_into(support::ByteView message, support::MutableByteView out);

  /// One-shot convenience; allocates only the returned tag for SHA-256
  /// (through HmacSha256Key).  Hot paths hold a key schedule or an Hmac.
  static support::Bytes compute(HashKind kind, support::ByteView key,
                                support::ByteView message);

  /// Constant-time verification of a tag.
  static bool verify(HashKind kind, support::ByteView key, support::ByteView message,
                     support::ByteView tag);

 private:
  HashKind kind_;
  std::unique_ptr<Hash> inner_;      ///< running inner hash
  std::unique_ptr<Hash> outer_;      ///< outer hash, reloaded per tag
  std::unique_ptr<Hash> inner_pad_;  ///< midstate after K0^ipad
  std::unique_ptr<Hash> outer_pad_;  ///< midstate after K0^opad
};

}  // namespace rasc::crypto
