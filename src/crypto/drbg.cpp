#include "src/crypto/drbg.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasc::crypto {

HmacDrbg::HmacDrbg(support::ByteView seed)
    : k_(std::array<std::uint8_t, kOutLen>{}) {  // K = 0x00...00
  v_.fill(0x01);
  update(seed);
}

void HmacDrbg::update(support::ByteView provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V), then — with
  // provided data only — the same again with 0x01.
  for (const std::uint8_t round : {std::uint8_t{0x00}, std::uint8_t{0x01}}) {
    if (round == 0x01 && provided.empty()) return;
    Sha256 inner = k_.begin();
    inner.update(v_);
    inner.update(support::ByteView(&round, 1));
    inner.update(provided);
    std::array<std::uint8_t, kOutLen> key;
    k_.finish(inner, key);
    k_ = HmacSha256Key(key);
    k_.tag(v_, v_);
  }
}

void HmacDrbg::generate(support::MutableByteView out) {
  std::size_t produced = 0;
  while (produced < out.size()) {
    k_.tag(v_, v_);
    const std::size_t take = std::min(kOutLen, out.size() - produced);
    std::copy_n(v_.begin(), take, out.begin() + static_cast<std::ptrdiff_t>(produced));
    produced += take;
  }
  update({});
}

support::Bytes HmacDrbg::generate(std::size_t n) {
  support::Bytes out(n);
  generate(out);
  return out;
}

void HmacDrbg::reseed(support::ByteView seed) { update(seed); }

std::uint64_t HmacDrbg::below(std::uint64_t bound) {
  if (bound == 0) throw std::domain_error("HmacDrbg::below zero bound");
  // Rejection sampling over the smallest power-of-two mask >= bound.
  std::uint64_t mask = bound - 1;
  mask |= mask >> 1;
  mask |= mask >> 2;
  mask |= mask >> 4;
  mask |= mask >> 8;
  mask |= mask >> 16;
  mask |= mask >> 32;
  for (;;) {
    std::uint8_t buf[8];
    generate(buf);
    const std::uint64_t v = support::get_u64_be(buf) & mask;
    if (v < bound) return v;
  }
}

bn::Bignum::ByteSource HmacDrbg::byte_source() {
  return [this](support::MutableByteView out) { generate(out); };
}

}  // namespace rasc::crypto
