#include "src/crypto/hash.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "src/crypto/blake2b.hpp"
#include "src/crypto/blake2s.hpp"
#include "src/support/hex.hpp"
#include "src/support/rng.hpp"

namespace rasc::crypto {
namespace {

using support::hex_encode;
using support::to_bytes;

std::string digest_hex(HashKind kind, std::string_view msg) {
  return hex_encode(hash_oneshot(kind, to_bytes(msg)));
}

// ---- FIPS 180-4 / RFC 7693 test vectors ----------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(HashKind::kSha256, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(HashKind::kSha256, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(HashKind::kSha256,
                       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  auto h = make_hash(HashKind::kSha256);
  const support::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h->update(chunk);
  EXPECT_EQ(hex_encode(h->finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(digest_hex(HashKind::kSha512, ""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(digest_hex(HashKind::kSha512, "abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(HashKind::kSha512,
                       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Blake2b, Abc) {
  // RFC 7693 Appendix A.
  EXPECT_EQ(digest_hex(HashKind::kBlake2b, "abc"),
            "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
            "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923");
}

TEST(Blake2s, Abc) {
  // RFC 7693 Appendix B.
  EXPECT_EQ(digest_hex(HashKind::kBlake2s, "abc"),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982");
}

TEST(Blake2s, EmptyString) {
  EXPECT_EQ(digest_hex(HashKind::kBlake2s, ""),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9");
}

// ---- multi-block known answers ---------------------------------------------
// The streaming classes and the lane kernels share one compression function,
// so lane-vs-scalar identity cannot catch a multi-block bug in it.  These
// digests come from Python's hashlib instead; each test names its one-liner.

/// Bytes i % modulus for i in [0, n).
support::Bytes counting_bytes(std::size_t n, std::size_t modulus = 256) {
  support::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i % modulus);
  return out;
}

TEST(Blake2s, MultiBlockKnownAnswers) {
  // python3 -c "import hashlib; print(hashlib.blake2s(bytes(range(256))).hexdigest())"
  // python3 -c "import hashlib; print(hashlib.blake2s(
  //     bytes(i % 251 for i in range(1000))).hexdigest())"
  EXPECT_EQ(hex_encode(hash_oneshot(HashKind::kBlake2s, counting_bytes(256))),
            "5fdeb59f681d975f52c8e69c5502e02a12a3afcc5836ba58f42784c439228781");
  EXPECT_EQ(hex_encode(hash_oneshot(HashKind::kBlake2s, counting_bytes(1000, 251))),
            "1c067a5e746fb0f6734efac9a8cdb0e11061f0077f255184365c690115392501");
}

TEST(Blake2s, KeyedMultiBlockKnownAnswer) {
  // A 32-byte key fills the first block on its own; 65 message bytes add two.
  // python3 -c "import hashlib; print(hashlib.blake2s(
  //     bytes(range(65)), key=bytes(range(32))).hexdigest())"
  Blake2s keyed(counting_bytes(32));
  keyed.update(counting_bytes(65));
  EXPECT_EQ(hex_encode(keyed.finalize()),
            "21fe0ceb0052be7fb0f004187cacd7de67fa6eb0938d927677f2398c132317a8");
}

TEST(Sha256, PaddingBoundaryKnownAnswers) {
  // 55 bytes still fit the length in one block; 56 and 64 spill the padding
  // into a second; 65 spans two data blocks.
  // python3 -c "import hashlib; [print(n, hashlib.sha256(bytes(range(n))).hexdigest())
  //     for n in (55, 56, 64, 65)]"
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
  };
  for (const auto& [length, expected] : cases) {
    EXPECT_EQ(hex_encode(hash_oneshot(HashKind::kSha256, counting_bytes(length))),
              expected)
        << length << " bytes";
  }
}

// ---- generic properties over all hash kinds -------------------------------

class AllHashes : public ::testing::TestWithParam<HashKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, AllHashes, ::testing::ValuesIn(kAllHashKinds),
                         [](const auto& info) {
                           std::string n = hash_name(info.param);
                           std::erase(n, '-');
                           return n;
                         });

TEST_P(AllHashes, DigestSizeMatchesInterface) {
  auto h = make_hash(GetParam());
  EXPECT_EQ(h->digest_size(), hash_digest_size(GetParam()));
  h->update(to_bytes("payload"));
  EXPECT_EQ(h->finalize().size(), hash_digest_size(GetParam()));
}

TEST_P(AllHashes, StreamingEqualsOneShot) {
  const support::Bytes data = support::random_bytes(99, 4096);

  const auto oneshot = hash_oneshot(GetParam(), data);
  // Feed in irregular chunks.
  auto h = make_hash(GetParam());
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 128, 129, 1000, 3000};
  for (std::size_t c : chunks) {
    const std::size_t take = std::min(c, data.size() - off);
    h->update(support::ByteView(data.data() + off, take));
    off += take;
    if (off == data.size()) break;
  }
  h->update(support::ByteView(data.data() + off, data.size() - off));
  EXPECT_EQ(h->finalize(), oneshot);
}

TEST_P(AllHashes, CloneResumesIndependently) {
  auto h = make_hash(GetParam());
  h->update(to_bytes("prefix-"));
  auto h2 = h->clone();
  h->update(to_bytes("left"));
  h2->update(to_bytes("left"));
  EXPECT_EQ(h->finalize(), h2->finalize());
}

TEST_P(AllHashes, CloneDivergesOnDifferentSuffix) {
  auto h = make_hash(GetParam());
  h->update(to_bytes("prefix-"));
  auto h2 = h->clone();
  h->update(to_bytes("left"));
  h2->update(to_bytes("right"));
  EXPECT_NE(h->finalize(), h2->finalize());
}

TEST_P(AllHashes, FinalizeResetsState) {
  auto h = make_hash(GetParam());
  h->update(to_bytes("abc"));
  const auto first = h->finalize();
  h->update(to_bytes("abc"));
  EXPECT_EQ(h->finalize(), first);
}

TEST_P(AllHashes, SensitiveToEveryByte) {
  const support::Bytes base(257, 0x5a);
  const auto ref = hash_oneshot(GetParam(), base);
  for (std::size_t i : {std::size_t{0}, std::size_t{128}, std::size_t{256}}) {
    support::Bytes mutated = base;
    mutated[i] ^= 0x01;
    EXPECT_NE(hash_oneshot(GetParam(), mutated), ref) << "byte " << i;
  }
}

TEST_P(AllHashes, LengthExtensionBoundaries) {
  // Hash exactly block-size and block-size +/- 1 inputs; just ensure all
  // distinct and deterministic (padding edge cases).
  auto h = make_hash(GetParam());
  const std::size_t bs = h->block_size();
  support::Bytes prev;
  for (std::size_t len : {bs - 1, bs, bs + 1, 2 * bs - 1, 2 * bs, 2 * bs + 1}) {
    const support::Bytes data(len, 0xa5);
    const auto d1 = hash_oneshot(GetParam(), data);
    const auto d2 = hash_oneshot(GetParam(), data);
    EXPECT_EQ(d1, d2);
    EXPECT_NE(d1, prev);
    prev = d1;
  }
}

// ---- keyed BLAKE2 ----------------------------------------------------------

TEST(Blake2Keyed, KeyChangesDigest) {
  const auto msg = to_bytes("message");
  Blake2b unkeyed;
  unkeyed.update(msg);
  Blake2b keyed(to_bytes("k1"));
  keyed.update(msg);
  Blake2b keyed2(to_bytes("k2"));
  keyed2.update(msg);
  const auto d0 = unkeyed.finalize();
  const auto d1 = keyed.finalize();
  const auto d2 = keyed2.finalize();
  EXPECT_NE(d0, d1);
  EXPECT_NE(d1, d2);
}

TEST(Blake2Keyed, ResetPreservesKey) {
  Blake2s keyed(to_bytes("key"));
  keyed.update(to_bytes("m"));
  const auto first = keyed.finalize();
  keyed.update(to_bytes("m"));
  EXPECT_EQ(keyed.finalize(), first);
}

TEST(Blake2Keyed, OverlongKeyThrows) {
  EXPECT_THROW(Blake2b(support::Bytes(65, 0)), std::invalid_argument);
  EXPECT_THROW(Blake2s(support::Bytes(33, 0)), std::invalid_argument);
}

TEST(Hash, NamesAreStable) {
  EXPECT_EQ(hash_name(HashKind::kSha256), "SHA-256");
  EXPECT_EQ(hash_name(HashKind::kSha512), "SHA-512");
  EXPECT_EQ(hash_name(HashKind::kBlake2b), "BLAKE2b");
  EXPECT_EQ(hash_name(HashKind::kBlake2s), "BLAKE2s");
}

}  // namespace
}  // namespace rasc::crypto
