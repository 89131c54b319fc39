/// Deterministic robustness sweep over the two wire decoders: a sealed
/// challenge request, a flat report and a tree-mode report, each taken
/// from a real prover round.  Every truncation, every single-bit flip,
/// every length or count field forced to 0, to its maximum and to one past
/// the wire, and a seeded pass of random byte overwrites.  No decoder may
/// throw (the sanitizer job runs this too), no mutated request may open,
/// no mutated report may pass the verifier's MAC check, and decode then
/// encode must give back each unmutated wire.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/attest/protocol.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::Bytes;
using support::to_bytes;

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;
const Bytes kKey = to_bytes("wire-robustness-key");

/// A prover and its verifier over one seeded image.
struct Rig {
  sim::Simulator simulator;
  sim::Device device;
  Verifier verifier;
  AttestationProcess mp;

  explicit Rig(ProverConfig prover)
      : device(simulator, sim::DeviceConfig{"prv-wire", kBlocks * kBlockSize, kBlockSize,
                                            kKey}),
        verifier(crypto::HashKind::kSha256, kKey,
                 support::random_bytes(31, kBlocks * kBlockSize), kBlockSize),
        mp(device, prover) {
    device.memory().load(support::random_bytes(31, kBlocks * kBlockSize));
  }

  /// One measurement answering a fresh challenge, as its wire.
  Bytes report_wire() {
    Bytes wire;
    mp.start({device.id(), verifier.issue(), 1},
             [&wire](const AttestationResult& result) {
               wire = serialize_report_wire(result.report);
             });
    simulator.run();
    return wire;
  }
};

ProverConfig tree_prover() {
  ProverConfig config;
  config.use_merkle_tree = true;
  config.max_proof_leaves = 3;  // a first round proves all 8 blocks: 3 proofs
  return config;
}

/// Offsets of every u32 length or count field of a well-formed report
/// wire, found by walking its layout (report.hpp, mtree.hpp).
std::vector<std::size_t> report_length_fields(const Bytes& wire) {
  std::vector<std::size_t> at;
  std::size_t pos = 0;
  const auto u32 = [&](std::size_t p) { return support::get_u32_be({wire.data() + p, 4}); };
  const auto field = [&] {
    at.push_back(pos);
    pos += 4 + u32(pos);
  };
  field();         // device id
  field();         // challenge
  pos += 3 * 8 + 4;  // counter, t_start, t_end, hash
  field();         // measurement
  if (u32(pos) == 0x4d545245) {  // 'MTRE' trailer
    pos += 4;
    field();  // root
    at.push_back(pos);  // proof count
    const std::uint32_t proofs = u32(pos);
    pos += 4;
    for (std::uint32_t i = 0; i < proofs; ++i) {
      const std::size_t proof = pos + 4;
      at.push_back(pos);  // proof length
      const std::uint32_t leaves = u32(proof + 4);
      const std::uint32_t width = u32(proof + 16);
      at.push_back(proof + 4);   // leaf count
      at.push_back(proof + 16);  // digest width
      at.push_back(proof + 20 + leaves * (width + 8));  // sibling count
      pos = proof + u32(pos);
    }
  }
  field();  // MAC
  field();  // signature
  EXPECT_EQ(pos, wire.size()) << "layout walk out of step with the wire";
  return at;
}

/// Every mutation of `wire` the sweep applies, each different from it.
std::vector<Bytes> mutations(const Bytes& wire, const std::vector<std::size_t>& fields,
                             std::uint64_t seed) {
  std::vector<Bytes> out;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    out.emplace_back(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      out.push_back(wire);
      out.back()[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  for (const std::size_t at : fields) {
    const auto past = static_cast<std::uint32_t>(wire.size() - (at + 4) + 1);
    for (const std::uint32_t value : {0u, 0xffffffffu, past}) {
      Bytes forced = wire;
      support::put_u32_be({forced.data() + at, 4}, value);
      if (forced != wire) out.push_back(std::move(forced));
    }
  }
  support::Xoshiro256 rng(seed);
  for (int i = 0; i < 500; ++i) {
    Bytes garbled = wire;
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t k = 0; k < n; ++k) {
      garbled[rng.below(garbled.size())] = static_cast<std::uint8_t>(rng.below(256));
    }
    if (garbled != wire) out.push_back(std::move(garbled));
  }
  return out;
}

TEST(WireRobustness, RequestWireRejectsEveryMutation) {
  const crypto::HmacSha256Key key(kKey);
  Verifier verifier(crypto::HashKind::kSha256, kKey,
                    support::random_bytes(31, kBlocks * kBlockSize), kBlockSize);
  const Bytes wire = seal_challenge_request({42, verifier.issue()}, key);
  const auto opened = open_challenge_request(wire, key);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(seal_challenge_request(*opened, key), wire);  // decode then encode

  const std::vector<Bytes> mutated = mutations(wire, {8}, 0x72657175);
  EXPECT_GT(mutated.size(), wire.size() * 9);
  for (const Bytes& m : mutated) {
    std::optional<ChallengeRequest> request;
    EXPECT_NO_THROW(request = open_challenge_request(m, key));
    EXPECT_FALSE(request.has_value()) << "a mutated request opened";
  }
}

TEST(WireRobustness, AuthenticRequestPastChallengeCapacityIsRefused) {
  // Well-formed and correctly MACed, but its challenge is one byte longer
  // than a ChallengeRequest holds: refused, not thrown on.
  const crypto::HmacSha256Key key(kKey);
  const Bytes challenge(Challenge::kMaxSize + 1, 0x5c);
  Bytes message = to_bytes("ra-challenge-request");
  support::append_u64_be(message, 42);
  support::append(message, challenge);
  Bytes wire;
  support::append_u64_be(wire, 42);
  support::append_u32_be(wire, static_cast<std::uint32_t>(challenge.size()));
  support::append(wire, challenge);
  std::uint8_t tag[crypto::HmacSha256Key::kTagSize];
  key.tag(message, tag);
  support::append(wire, tag);
  std::optional<ChallengeRequest> request;
  EXPECT_NO_THROW(request = open_challenge_request(wire, key));
  EXPECT_FALSE(request.has_value());
}

/// Parse every mutation of `wire` and judge each parsed one; none may
/// throw or pass the MAC check.  Returns how many parsed.
std::size_t sweep_report(Rig& rig, const Bytes& wire, std::uint64_t seed) {
  std::size_t parsed_count = 0;
  const auto fields = report_length_fields(wire);
  for (const Bytes& m : mutations(wire, fields, seed)) {
    std::optional<Report> parsed;
    EXPECT_NO_THROW(parsed = parse_report_wire(m));
    if (!parsed) continue;
    ++parsed_count;
    VerifyOutcome outcome;
    EXPECT_NO_THROW(outcome = rig.verifier.verify(*parsed));
    EXPECT_FALSE(outcome.mac_ok) << "a mutated report passed the MAC check";
  }
  return parsed_count;
}

TEST(WireRobustness, FlatReportWireNeverVerifiesMutated) {
  Rig rig({});
  const Bytes wire = rig.report_wire();
  const auto parsed = parse_report_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tree_root.empty());
  EXPECT_EQ(serialize_report_wire(*parsed), wire);  // decode then encode
  EXPECT_TRUE(report_mac_valid(*parsed, kKey));
  EXPECT_EQ(report_length_fields(wire).size(), 5u);
  // Bit flips in the counter, times, hash kind, challenge and measurement
  // keep the structure: they parse, and the MAC catches them.
  EXPECT_GT(sweep_report(rig, wire, 0x666c6174), 8u * (24 + 4));
}

TEST(WireRobustness, TreeReportWireNeverVerifiesMutated) {
  Rig rig(tree_prover());
  const Bytes wire = rig.report_wire();
  const auto parsed = parse_report_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->proofs.size(), 3u);
  EXPECT_EQ(serialize_report_wire(*parsed), wire);  // decode then encode
  EXPECT_TRUE(report_mac_valid(*parsed, kKey));
  EXPECT_EQ(report_length_fields(wire).size(), 7u + 3 * 4);
  EXPECT_GT(sweep_report(rig, wire, 0x74726565), 8u * (24 + 4));
}

}  // namespace
}  // namespace rasc::attest
