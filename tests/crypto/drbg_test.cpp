#include "src/crypto/drbg.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "src/support/bytes.hpp"
#include "src/support/hex.hpp"

namespace rasc::crypto {
namespace {

using support::hex_decode_or_throw;
using support::hex_encode;
using support::to_bytes;

// NIST CAVP HMAC_DRBG.rsp [SHA-256], PredictionResistance = False,
// EntropyInputLen = 256, NonceLen = 128, no personalization string, no
// additional input, COUNT = 0: instantiate from entropy || nonce, generate
// 1024 bits twice, and the second output is ReturnedBits.  Cross-checked
// against an SP 800-90A reference over Python's hmac:
//   python3 -c "import hmac,hashlib;H=lambda k,m:hmac.new(k,m,hashlib.sha256).digest()
//   def u(K,V,p=b''):K=H(K,V+b'\0'+p);V=H(K,V);return(H(K,V+b'\1'+p),H(H(K,V+b'\1'+p),V))if p else(K,V)
//   def g(K,V):
//    o=b''
//    while len(o)<128:V=H(K,V);o+=V
//    return u(K,V)+(o,)
//   K,V=u(bytes(32),b'\1'*32,bytes.fromhex(E+N));K,V,_=g(K,V);print(g(K,V)[2].hex())"
// with E and N the entropy and nonce hex strings below.
TEST(Drbg, NistCavpSha256NoReseed) {
  HmacDrbg drbg(hex_decode_or_throw(
      "ca851911349384bffe89de1cbdc46e6831e44d34a4fb935ee285dd14b71a7488"
      "659ba96c601dc69fc902940805ec0ca8"));
  (void)drbg.generate(128);
  EXPECT_EQ(hex_encode(drbg.generate(128)),
            "e528e9abf2dece54d47c7e75e5fe302149f817ea9fb4bee6f4199697d04d5b89"
            "d54fbb978a15b5c443c9ec21036d2460b6f73ebad0dc2aba6e624abf07745bc1"
            "07694bb7547bb0995f70de25d6b29e2d3011bb19d27676c07162c8b5ccde0668"
            "961df86803482cb37ed6d5c0bb8d50cf1f50d476aa0458bdaba806f48be9dcb8");
}

TEST(Drbg, DeterministicForSeed) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(Drbg, DifferentSeedsDiverge) {
  HmacDrbg a(to_bytes("seed-a"));
  HmacDrbg b(to_bytes("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, SuccessiveOutputsDiffer) {
  HmacDrbg d(to_bytes("s"));
  EXPECT_NE(d.generate(32), d.generate(32));
}

TEST(Drbg, ReseedChangesStream) {
  HmacDrbg a(to_bytes("s"));
  HmacDrbg b(to_bytes("s"));
  (void)a.generate(16);
  (void)b.generate(16);
  b.reseed(to_bytes("extra-entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, GeneratesRequestedLengths) {
  HmacDrbg d(to_bytes("len"));
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 100u, 1000u}) {
    EXPECT_EQ(d.generate(n).size(), n);
  }
}

TEST(Drbg, BelowInRange) {
  HmacDrbg d(to_bytes("below"));
  for (int i = 0; i < 1000; ++i) EXPECT_LT(d.below(37), 37u);
}

TEST(Drbg, BelowZeroThrows) {
  HmacDrbg d(to_bytes("z"));
  EXPECT_THROW(d.below(0), std::domain_error);
}

TEST(Drbg, BelowCoversRange) {
  HmacDrbg d(to_bytes("cover"));
  bool seen[8] = {};
  for (int i = 0; i < 500; ++i) seen[d.below(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Drbg, ByteSourceFeedsBignum) {
  HmacDrbg d(to_bytes("bn"));
  const bn::Bignum bound = bn::Bignum::from_hex("ffffffffffffffffffffffff");
  const bn::Bignum v = bn::Bignum::random_below(bound, d.byte_source());
  EXPECT_LT(v, bound);
}

TEST(Drbg, OutputLooksBalanced) {
  HmacDrbg d(to_bytes("balance"));
  const auto out = d.generate(4096);
  std::size_t ones = 0;
  for (auto b : out) ones += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(b)));
  const double frac = static_cast<double>(ones) / (4096 * 8);
  EXPECT_NEAR(frac, 0.5, 0.02);
}

}  // namespace
}  // namespace rasc::crypto
