#include "src/attest/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/mtree/mtree.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

Report make_report() {
  Report r;
  r.device_id = "dev-7";
  r.challenge = to_bytes("nonce");
  r.counter = 42;
  r.t_start = 1000;
  r.t_end = 2000;
  r.hash = crypto::HashKind::kSha256;
  r.measurement = to_bytes("measurement-bytes");
  return r;
}

TEST(Report, MacRoundTrip) {
  Report r = make_report();
  authenticate_report(r, to_bytes("key"));
  EXPECT_TRUE(report_mac_valid(r, to_bytes("key")));
}

TEST(Report, MacRejectsWrongKey) {
  Report r = make_report();
  authenticate_report(r, to_bytes("key"));
  EXPECT_FALSE(report_mac_valid(r, to_bytes("other-key")));
}

TEST(Report, MacCoversEveryField) {
  Report base = make_report();
  authenticate_report(base, to_bytes("key"));

  auto tampered_fails = [&](auto mutate) {
    Report r = base;
    mutate(r);
    return !report_mac_valid(r, to_bytes("key"));
  };
  EXPECT_TRUE(tampered_fails([](Report& r) { r.device_id = "dev-8"; }));
  EXPECT_TRUE(tampered_fails([](Report& r) { r.challenge[0] ^= 1; }));
  EXPECT_TRUE(tampered_fails([](Report& r) { ++r.counter; }));
  EXPECT_TRUE(tampered_fails([](Report& r) { ++r.t_start; }));
  EXPECT_TRUE(tampered_fails([](Report& r) { ++r.t_end; }));
  EXPECT_TRUE(tampered_fails([](Report& r) { r.hash = crypto::HashKind::kSha512; }));
  EXPECT_TRUE(tampered_fails([](Report& r) { r.measurement[3] ^= 1; }));
}

TEST(Report, SerializationUnambiguous) {
  // Moving a byte between adjacent variable-length fields must change the
  // serialization (length prefixes prevent ambiguity).
  Report a = make_report();
  a.device_id = "ab";
  a.challenge = to_bytes("cd");
  Report b = make_report();
  b.device_id = "abc";
  b.challenge = to_bytes("d");
  EXPECT_NE(a.serialize_body(), b.serialize_body());
}

Report make_tree_report() {
  Report r = make_report();
  mtree::MerkleTree tree(8, crypto::HashKind::kSha256);
  for (std::size_t i = 0; i < 8; ++i) {
    // Proof wire demands digest-width leaves (32 B for SHA-256).
    const support::Bytes bytes(32, static_cast<std::uint8_t>(i + 1));
    tree.set_leaf(i, Digest(support::ByteView(bytes)));
  }
  tree.flush();
  r.tree_root = tree.root_bytes();
  r.proofs.push_back(tree.prove_range(2, 3));
  r.proofs.push_back(tree.prove_range(6, 1));
  return r;
}

TEST(Report, WireRoundTripsTreeTrailer) {
  Report r = make_tree_report();
  authenticate_report(r, to_bytes("key"));
  const auto parsed = parse_report_wire(serialize_report_wire(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tree_root, r.tree_root);
  ASSERT_EQ(parsed->proofs.size(), 2u);
  EXPECT_EQ(parsed->proofs[0].first_leaf, 2u);
  EXPECT_EQ(parsed->proofs[0].leaf_count, 3u);
  EXPECT_EQ(parsed->proofs[0].leaves, r.proofs[0].leaves);
  EXPECT_EQ(parsed->proofs[0].siblings, r.proofs[0].siblings);
  EXPECT_EQ(parsed->proofs[1].first_leaf, 6u);
  EXPECT_TRUE(report_mac_valid(*parsed, to_bytes("key")));
  EXPECT_TRUE(parsed->proofs[0].verify(parsed->tree_root, 8));
}

TEST(Report, FlatWireCarriesNoTrailerAndParsesBack) {
  Report r = make_report();
  authenticate_report(r, to_bytes("key"));
  const support::Bytes flat_body = r.serialize_body();
  // Tree fields default-empty: the body is the legacy encoding (adding a
  // trailer strictly grows it).
  EXPECT_LT(flat_body.size(), make_tree_report().serialize_body().size());
  const auto parsed = parse_report_wire(serialize_report_wire(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tree_root.empty());
  EXPECT_TRUE(parsed->proofs.empty());
  EXPECT_EQ(parsed->serialize_body(), flat_body);
}

TEST(Report, MacCoversTreeTrailer) {
  Report base = make_tree_report();
  authenticate_report(base, to_bytes("key"));
  ASSERT_TRUE(report_mac_valid(base, to_bytes("key")));
  {
    Report r = base;
    r.tree_root[0] ^= 1;
    EXPECT_FALSE(report_mac_valid(r, to_bytes("key")));
  }
  {
    Report r = base;
    r.proofs[0].first_leaf ^= 1;
    EXPECT_FALSE(report_mac_valid(r, to_bytes("key")));
  }
  {
    Report r = base;
    r.proofs.pop_back();
    EXPECT_FALSE(report_mac_valid(r, to_bytes("key")));
  }
}

TEST(Report, TreeWireParseRejectsTruncation) {
  Report r = make_tree_report();
  authenticate_report(r, to_bytes("key"));
  const support::Bytes wire = serialize_report_wire(r);
  for (std::size_t cut = wire.size() - 40; cut < wire.size(); ++cut) {
    EXPECT_FALSE(parse_report_wire(support::ByteView(wire.data(), cut)).has_value())
        << "cut at " << cut;
  }
}

TEST(Report, TreeWireParseRejectsProofHashOfAnotherWidth) {
  // A flipped proof hash field must garble the wire.  Parsed, the proof's
  // digests would not be its kind's width, and the MAC check's
  // re-serialization throws on that.
  Report r = make_tree_report();
  authenticate_report(r, to_bytes("key"));
  const support::Bytes wire = serialize_report_wire(r);
  ASSERT_TRUE(parse_report_wire(wire).has_value());
  const support::Bytes proof = r.proofs[0].serialize();
  const auto at = std::search(wire.begin(), wire.end(), proof.begin(), proof.end());
  ASSERT_NE(at, wire.end());
  const std::size_t hash_field = static_cast<std::size_t>(at - wire.begin()) + 12;
  for (const std::uint32_t kind :
       {static_cast<std::uint32_t>(crypto::HashKind::kSha512), 0x7fu}) {
    support::Bytes tampered = wire;
    support::put_u32_be(support::MutableByteView(tampered).subspan(hash_field, 4), kind);
    EXPECT_FALSE(parse_report_wire(tampered).has_value()) << "hash kind " << kind;
  }
}

TEST(Report, SignatureRoundTrip) {
  crypto::HmacDrbg drbg(to_bytes("report-signer"));
  auto signer = crypto::make_signer(crypto::SigKind::kEcdsa256, drbg);
  Report r = make_report();
  sign_report(r, *signer);
  EXPECT_TRUE(report_signature_valid(r, *signer));
}

TEST(Report, SignatureRejectsTamper) {
  crypto::HmacDrbg drbg(to_bytes("report-signer"));
  auto signer = crypto::make_signer(crypto::SigKind::kEcdsa256, drbg);
  Report r = make_report();
  sign_report(r, *signer);
  r.counter ^= 1;
  EXPECT_FALSE(report_signature_valid(r, *signer));
}

TEST(Report, MissingSignatureIsInvalid) {
  crypto::HmacDrbg drbg(to_bytes("report-signer"));
  auto signer = crypto::make_signer(crypto::SigKind::kEcdsa160, drbg);
  const Report r = make_report();
  EXPECT_FALSE(report_signature_valid(r, *signer));
}

}  // namespace
}  // namespace rasc::attest
