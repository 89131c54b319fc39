#include "src/crypto/hmac.hpp"

#include <algorithm>

namespace rasc::crypto {

namespace {

constexpr std::uint8_t kIpad = 0x36;
constexpr std::uint8_t kOpad = 0x5c;
constexpr std::size_t kMaxBlock = 128;  // largest library block (SHA-512, BLAKE2b)
constexpr std::size_t kMaxDigest = 64;

/// RFC 2104's K0: `key`, first hashed with `h` when longer than a block,
/// zero-padded to h's block size.
void derive_k0(Hash& h, support::ByteView key, std::uint8_t (&k0)[kMaxBlock]) {
  std::fill(std::begin(k0), std::end(k0), std::uint8_t{0});
  if (key.size() > h.block_size()) {
    hash_oneshot_into(h, key, support::MutableByteView(k0, h.digest_size()));
  } else {
    std::copy(key.begin(), key.end(), k0);
  }
}

/// Reset `h` and absorb K0 ^ pad — one whole block, which leaves `h` at
/// the midstate both HMAC forms keep.
void absorb_pad(Hash& h, const std::uint8_t (&k0)[kMaxBlock], std::uint8_t pad) {
  std::uint8_t block[kMaxBlock];
  const std::size_t n = h.block_size();
  for (std::size_t i = 0; i < n; ++i) block[i] = static_cast<std::uint8_t>(k0[i] ^ pad);
  h.reset();
  h.update(support::ByteView(block, n));
  support::secure_wipe(support::MutableByteView(block, n));
}

/// out = H(K0^opad || H(K0^ipad || m)), from the running inner hash and an
/// outer hash at the K0^opad midstate.
template <class H>
void finish_hmac(H& inner, H& outer, support::MutableByteView out) {
  std::uint8_t digest[kMaxDigest];
  const std::size_t n = inner.digest_size();
  inner.finalize_into(support::MutableByteView(digest, n));
  outer.update(support::ByteView(digest, n));
  outer.finalize_into(out);
}

}  // namespace

HmacSha256Key::HmacSha256Key(support::ByteView key) {
  Sha256 h;
  std::uint8_t k0[kMaxBlock];
  derive_k0(h, key, k0);
  absorb_pad(h, k0, kIpad);
  inner_ = h.chaining_value();
  absorb_pad(h, k0, kOpad);
  outer_ = h.chaining_value();
  support::secure_wipe(k0);
}

void HmacSha256Key::finish(Sha256& inner, support::MutableByteView out) const {
  Sha256 outer(outer_, Sha256::kBlockSize);
  finish_hmac(inner, outer, out);
}

void HmacSha256Key::tag(support::ByteView message, support::MutableByteView out) const {
  Sha256 inner = begin();
  inner.update(message);
  finish(inner, out);
}

Hmac::Hmac(HashKind kind, support::ByteView key)
    : kind_(kind),
      inner_(make_hash(kind)),
      outer_(make_hash(kind)),
      inner_pad_(make_hash(kind)),
      outer_pad_(make_hash(kind)) {
  std::uint8_t k0[kMaxBlock];
  derive_k0(*inner_pad_, key, k0);
  absorb_pad(*inner_pad_, k0, kIpad);
  absorb_pad(*outer_pad_, k0, kOpad);
  support::secure_wipe(k0);
  inner_->assign(*inner_pad_);
}

Hmac::Hmac(const Hmac& other)
    : kind_(other.kind_),
      inner_(other.inner_->clone()),
      outer_(other.outer_->clone()),
      inner_pad_(other.inner_pad_->clone()),
      outer_pad_(other.outer_pad_->clone()) {}

Hmac& Hmac::operator=(const Hmac& other) {
  if (this == &other) return *this;
  Hmac copy(other);
  *this = std::move(copy);
  return *this;
}

void Hmac::update(support::ByteView data) { inner_->update(data); }

support::Bytes Hmac::finalize() {
  support::Bytes tag(tag_size());
  finalize_into(tag);
  return tag;
}

void Hmac::finalize_into(support::MutableByteView out) {
  outer_->assign(*outer_pad_);
  finish_hmac(*inner_, *outer_, out);
  inner_->assign(*inner_pad_);
}

void Hmac::reset() { inner_->assign(*inner_pad_); }

void Hmac::compute_into(support::ByteView message, support::MutableByteView out) {
  update(message);
  finalize_into(out);
}

support::Bytes Hmac::compute(HashKind kind, support::ByteView key,
                             support::ByteView message) {
  if (kind == HashKind::kSha256) {
    support::Bytes tag(HmacSha256Key::kTagSize);
    HmacSha256Key(key).tag(message, tag);
    return tag;
  }
  Hmac mac(kind, key);
  mac.update(message);
  return mac.finalize();
}

bool Hmac::verify(HashKind kind, support::ByteView key, support::ByteView message,
                  support::ByteView tag) {
  return support::ct_equal(compute(kind, key, message), tag);
}

}  // namespace rasc::crypto
