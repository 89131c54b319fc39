#include "src/crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/support/hex.hpp"

namespace rasc::crypto {
namespace {

using support::Bytes;
using support::hex_decode_or_throw;
using support::hex_encode;
using support::to_bytes;

// RFC 4231 test cases.
TEST(Hmac, Rfc4231Case1Sha256) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(Hmac::compute(HashKind::kSha256, key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case1Sha512) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(Hmac::compute(HashKind::kSha512, key, to_bytes("Hi There"))),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(Hmac, Rfc4231Case2Sha256) {
  EXPECT_EQ(hex_encode(Hmac::compute(HashKind::kSha256, to_bytes("Jefe"),
                                     to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3Sha256) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(Hmac::compute(HashKind::kSha256, key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_encode(Hmac::compute(HashKind::kSha256, key,
                                     to_bytes("Test Using Larger Than Block-Size Key - "
                                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

class HmacAllHashes : public ::testing::TestWithParam<HashKind> {};
INSTANTIATE_TEST_SUITE_P(Kinds, HmacAllHashes, ::testing::ValuesIn(kAllHashKinds));

TEST_P(HmacAllHashes, StreamingEqualsOneShot) {
  const Bytes key = to_bytes("attestation-key");
  Hmac mac(GetParam(), key);
  mac.update(to_bytes("part1-"));
  mac.update(to_bytes("part2"));
  EXPECT_EQ(mac.finalize(), Hmac::compute(GetParam(), key, to_bytes("part1-part2")));
}

TEST_P(HmacAllHashes, FinalizeRekeysForReuse) {
  Hmac mac(GetParam(), to_bytes("k"));
  mac.update(to_bytes("msg"));
  const auto t1 = mac.finalize();
  mac.update(to_bytes("msg"));
  EXPECT_EQ(mac.finalize(), t1);
}

TEST_P(HmacAllHashes, DifferentKeysDiffer) {
  const auto msg = to_bytes("m");
  EXPECT_NE(Hmac::compute(GetParam(), to_bytes("k1"), msg),
            Hmac::compute(GetParam(), to_bytes("k2"), msg));
}

TEST_P(HmacAllHashes, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("key");
  const Bytes msg = to_bytes("protected message");
  auto tag = Hmac::compute(GetParam(), key, msg);
  EXPECT_TRUE(Hmac::verify(GetParam(), key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(Hmac::verify(GetParam(), key, msg, tag));
  EXPECT_FALSE(Hmac::verify(GetParam(), key, to_bytes("other message"),
                            Hmac::compute(GetParam(), key, msg)));
}

TEST_P(HmacAllHashes, CopyPreservesState) {
  Hmac mac(GetParam(), to_bytes("k"));
  mac.update(to_bytes("prefix"));
  Hmac copy = mac;
  mac.update(to_bytes("-suffix"));
  copy.update(to_bytes("-suffix"));
  EXPECT_EQ(mac.finalize(), copy.finalize());
}

TEST_P(HmacAllHashes, TagSizeMatchesDigest) {
  Hmac mac(GetParam(), to_bytes("k"));
  EXPECT_EQ(mac.tag_size(), hash_digest_size(GetParam()));
}

/// RFC 2104 spelled out over one-shot hashes — no midstates — as the
/// oracle for the keyed forms.
Bytes reference_hmac(HashKind kind, const Bytes& key, const Bytes& message) {
  const std::size_t block = make_hash(kind)->block_size();
  Bytes k0 = key.size() > block ? hash_oneshot(kind, key) : key;
  k0.resize(block, 0);
  Bytes inner;
  Bytes outer;
  for (std::uint8_t b : k0) {
    inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  support::append(inner, message);
  support::append(outer, hash_oneshot(kind, inner));
  return hash_oneshot(kind, outer);
}

Bytes pattern(std::size_t n, std::uint8_t salt) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 131 + salt);
  return out;
}

// A held keyed state — the generic Hmac for every hash, plus the SHA-256
// schedule — reused across messages and after streaming finalizes, equals
// the one-shot compute and the spelled-out RFC 2104 at every key and
// message length around the block boundaries.
TEST_P(HmacAllHashes, HeldKeyMatchesOneShotAcrossLengths) {
  const HashKind kind = GetParam();
  const std::size_t block = make_hash(kind)->block_size();
  for (std::size_t key_len : {std::size_t{0}, std::size_t{1}, std::size_t{32}, block - 1,
                              block, block + 1, std::size_t{131}}) {
    const Bytes key = pattern(key_len, 7);
    Hmac held(kind, key);
    std::optional<HmacSha256Key> schedule;
    if (kind == HashKind::kSha256) schedule.emplace(key);
    for (std::size_t msg_len : {0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200}) {
      SCOPED_TRACE("key " + std::to_string(key_len) + " msg " + std::to_string(msg_len));
      const Bytes message = pattern(msg_len, static_cast<std::uint8_t>(msg_len));
      const Bytes expected = reference_hmac(kind, key, message);
      EXPECT_EQ(Hmac::compute(kind, key, message), expected);

      Bytes tag(held.tag_size());
      held.compute_into(message, tag);
      EXPECT_EQ(tag, expected);
      // Streamed in two parts after a finalize: the midstate is intact.
      held.update(support::ByteView(message).first(msg_len / 2));
      held.update(support::ByteView(message).subspan(msg_len / 2));
      EXPECT_EQ(held.finalize(), expected);
      // A discarded partial stream leaves no trace either.
      held.update(to_bytes("abandoned"));
      held.reset();

      if (schedule) {
        Bytes keyed(HmacSha256Key::kTagSize);
        schedule->tag(message, keyed);
        EXPECT_EQ(keyed, expected);
        Sha256 inner = schedule->begin();
        inner.update(support::ByteView(message).first(msg_len / 2));
        inner.update(support::ByteView(message).subspan(msg_len / 2));
        schedule->finish(inner, keyed);
        EXPECT_EQ(keyed, expected);
      }
    }
  }
}

// RFC 4231 cases 1-4, 6 and 7 through the held SHA-256 key schedule.
TEST(HmacSha256Key, Rfc4231Cases) {
  struct Case {
    Bytes key;
    Bytes data;
    const char* tag;
  };
  Bytes key4;
  for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const Case cases[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa), to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       to_bytes("This is a test using a larger than block-size key and a larger "
                "than block-size data. The key needs to be hashed before being "
                "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    const HmacSha256Key key(c.key);
    Bytes tag(HmacSha256Key::kTagSize);
    key.tag(c.data, tag);
    EXPECT_EQ(hex_encode(tag), c.tag);
    key.tag(c.data, tag);  // the schedule is immutable: same tag again
    EXPECT_EQ(hex_encode(tag), c.tag);
  }
}

TEST(HmacSha256Key, TagMayOverwriteItsMessage) {
  const HmacSha256Key key(to_bytes("k"));
  Bytes v(32, 0x01);
  const Bytes expected = Hmac::compute(HashKind::kSha256, to_bytes("k"), v);
  key.tag(v, v);
  EXPECT_EQ(v, expected);
}

}  // namespace
}  // namespace rasc::crypto
