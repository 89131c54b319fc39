#pragma once
/// \file drbg.hpp
/// HMAC-DRBG (NIST SP 800-90A) instantiated with HMAC-SHA-256.  All
/// cryptographic randomness in the library flows through this generator,
/// which makes every protocol run reproducible from its seed — the SMARM
/// secret permutation, ECDSA nonces, RSA prime search, and Vrf challenges.

#include <array>

#include "src/bignum/bignum.hpp"
#include "src/crypto/hmac.hpp"
#include "src/support/bytes.hpp"

namespace rasc::crypto {

class HmacDrbg {
 public:
  /// Internal (K, V) working state, for checkpoint/restore.  Restoring a
  /// snapshot resumes the output stream exactly where it was captured.
  struct State {
    support::Bytes key;
    support::Bytes v;
  };

  /// Instantiate from seed material (entropy || nonce || personalization).
  explicit HmacDrbg(support::ByteView seed);

  /// Resume from a state() snapshot without instantiating: the stream
  /// continues exactly as after restore().  Throws std::invalid_argument
  /// unless K and V are 32 bytes each.
  explicit HmacDrbg(const State& s);

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

  State state() const;
  void restore(const State& s);

 private:
  static constexpr std::size_t kOutLen = HmacSha256Key::kTagSize;

  void update(support::ByteView provided);

  std::array<std::uint8_t, kOutLen> key_{};  // K, kept for state()
  std::array<std::uint8_t, kOutLen> v_{};    // V
  HmacSha256Key k_;                          // K's schedule
};

}  // namespace rasc::crypto
