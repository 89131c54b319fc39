#pragma once
/// \file drbg.hpp
/// HMAC-DRBG (NIST SP 800-90A) instantiated with HMAC-SHA-256.  Seeded
/// streams of cryptographic randomness flow through this generator — the
/// SMARM secret permutation, SeED times, software-attestation challenges,
/// ECDSA nonces, RSA prime search.  Vrf challenges are a PRF instead
/// (attest/verifier.hpp).

#include <array>

#include "src/bignum/bignum.hpp"
#include "src/crypto/hmac.hpp"
#include "src/support/bytes.hpp"

namespace rasc::crypto {

class HmacDrbg {
 public:
  /// Instantiate from seed material (entropy || nonce || personalization).
  explicit HmacDrbg(support::ByteView seed);

  /// Fill `out` with pseudo-random bytes; allocates nothing.
  void generate(support::MutableByteView out);

  /// Convenience: n fresh bytes.
  support::Bytes generate(std::size_t n);

  /// Mix additional entropy into the state.
  void reseed(support::ByteView seed);

  /// Uniform integer in [0, bound), rejection-sampled.
  std::uint64_t below(std::uint64_t bound);

  /// Adapter for Bignum::random_below / prime generation.
  bn::Bignum::ByteSource byte_source();

 private:
  static constexpr std::size_t kOutLen = HmacSha256Key::kTagSize;

  void update(support::ByteView provided);

  std::array<std::uint8_t, kOutLen> v_{};  // V
  HmacSha256Key k_;                        // K's schedule
};

}  // namespace rasc::crypto
