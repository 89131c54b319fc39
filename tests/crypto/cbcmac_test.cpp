#include "src/crypto/cbcmac.hpp"

#include <gtest/gtest.h>

#include "src/support/rng.hpp"

namespace rasc::crypto {
namespace {

using support::Bytes;
using support::to_bytes;

TEST(CbcMac, TagHasBlockSize) {
  const auto tag = CbcMac::compute(Bytes(16, 1), to_bytes("hello"));
  EXPECT_EQ(tag.size(), CbcMac::kTagSize);
}

TEST(CbcMac, Deterministic) {
  const Bytes key(16, 0x77);
  EXPECT_EQ(CbcMac::compute(key, to_bytes("msg")), CbcMac::compute(key, to_bytes("msg")));
}

TEST(CbcMac, StreamingEqualsOneShot) {
  const Bytes key(16, 0x33);
  const Bytes data = support::random_bytes(3, 1000);

  CbcMac mac(key);
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 15u, 16u, 17u, 100u, 400u}) {
    const std::size_t take = std::min<std::size_t>(chunk, data.size() - off);
    mac.update(support::ByteView(data.data() + off, take));
    off += take;
  }
  mac.update(support::ByteView(data.data() + off, data.size() - off));
  EXPECT_EQ(mac.finalize(), CbcMac::compute(key, data));
}

TEST(CbcMac, KeySeparation) {
  EXPECT_NE(CbcMac::compute(Bytes(16, 1), to_bytes("m")),
            CbcMac::compute(Bytes(16, 2), to_bytes("m")));
}

TEST(CbcMac, PaddingDistinguishesTrailingZeros) {
  // With 0x80 padding, "ab" and "ab\x00" must have different tags.
  const Bytes key(16, 0x55);
  const Bytes a = {'a', 'b'};
  const Bytes b = {'a', 'b', 0x00};
  EXPECT_NE(CbcMac::compute(key, a), CbcMac::compute(key, b));
}

TEST(CbcMac, ExactBlockBoundaryDistinctFromPadded) {
  const Bytes key(16, 0x56);
  const Bytes block(16, 0xaa);
  Bytes block_plus = block;
  block_plus.push_back(0x80);
  EXPECT_NE(CbcMac::compute(key, block), CbcMac::compute(key, block_plus));
}

TEST(CbcMac, VerifyAcceptsAndRejects) {
  const Bytes key(16, 0x12);
  const Bytes msg = to_bytes("attestation report body");
  auto tag = CbcMac::compute(key, msg);
  EXPECT_TRUE(CbcMac::verify(key, msg, tag));
  tag[5] ^= 0x80;
  EXPECT_FALSE(CbcMac::verify(key, msg, tag));
}

TEST(CbcMac, FinalizeResetsForReuse) {
  const Bytes key(16, 0x9a);
  CbcMac mac(key);
  mac.update(to_bytes("one"));
  const auto t1 = mac.finalize();
  mac.update(to_bytes("one"));
  EXPECT_EQ(mac.finalize(), t1);
}

TEST(CbcMac, EmptyMessageHasTag) {
  const Bytes key(16, 0x01);
  const auto tag = CbcMac::compute(key, {});
  EXPECT_EQ(tag.size(), 16u);
  EXPECT_NE(tag, CbcMac::compute(key, to_bytes("x")));
}

TEST(CbcMac, SupportsAes256Keys) {
  const auto tag = CbcMac::compute(Bytes(32, 0x44), to_bytes("m"));
  EXPECT_EQ(tag.size(), 16u);
  EXPECT_NE(tag, CbcMac::compute(Bytes(16, 0x44), to_bytes("m")));
}

}  // namespace
}  // namespace rasc::crypto
