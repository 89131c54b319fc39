/// Deterministic sweep of MtreeProof::verify on its own inputs: proofs
/// from MerkleTree::prove_range over trees of 1, 2, 3, 5, 8, 13, 64 and 65
/// leaves (every range of the small trees, a spread of ranges of the large
/// ones), each checked unedited and under every single-field edit: ±1 and
/// the extremes of first_leaf, leaf_count and total_leaves, a flipped byte
/// in each leaf and sibling, and a sibling added or removed at each
/// position.  The same edits of a real tree-mode report's proofs, re-MACed
/// with the device key, go through Verifier::verify.  Nothing may throw
/// (the sanitizer job runs this too).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/mtree/mtree.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using mtree::MerkleTree;
using mtree::MtreeProof;
using support::to_bytes;

constexpr std::size_t kLeafCounts[] = {1, 2, 3, 5, 8, 13, 64, 65};
constexpr std::size_t kEveryRangeUpTo = 13;

struct Edit {
  std::string what;
  MtreeProof proof;
};

std::vector<Edit> single_field_edits(const MtreeProof& proof) {
  std::vector<Edit> out;
  const auto edit_u32 = [&](const char* name, std::uint32_t MtreeProof::*field) {
    const std::uint32_t value = proof.*field;
    for (const std::uint32_t edited :
         {value - 1, value + 1, 0u, std::numeric_limits<std::uint32_t>::max()}) {
      if (edited == value) continue;
      out.push_back({std::string(name) + "=" + std::to_string(edited), proof});
      out.back().proof.*field = edited;
    }
  };
  edit_u32("first_leaf", &MtreeProof::first_leaf);
  edit_u32("leaf_count", &MtreeProof::leaf_count);
  edit_u32("total_leaves", &MtreeProof::total_leaves);
  const auto flip = [](mtree::Digest& digest, std::size_t salt) {
    support::Bytes bytes = digest.to_bytes();
    bytes[(salt * 7) % bytes.size()] ^= 0x01;
    digest = mtree::Digest(support::ByteView(bytes));
  };
  for (std::size_t i = 0; i < proof.leaves.size(); ++i) {
    out.push_back({"leaf " + std::to_string(i) + " flipped", proof});
    flip(out.back().proof.leaves[i], i);
  }
  for (std::size_t i = 0; i < proof.siblings.size(); ++i) {
    out.push_back({"sibling " + std::to_string(i) + " flipped", proof});
    flip(out.back().proof.siblings[i], i);
  }
  for (std::size_t i = 0; i <= proof.siblings.size(); ++i) {
    out.push_back({"sibling added at " + std::to_string(i), proof});
    auto& siblings = out.back().proof.siblings;
    siblings.insert(siblings.begin() + static_cast<std::ptrdiff_t>(i), proof.leaves.front());
  }
  for (std::size_t i = 0; i < proof.siblings.size(); ++i) {
    out.push_back({"sibling " + std::to_string(i) + " removed", proof});
    auto& siblings = out.back().proof.siblings;
    siblings.erase(siblings.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> ranges_of(std::size_t leaves) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (leaves <= kEveryRangeUpTo) {
    for (std::size_t first = 0; first < leaves; ++first) {
      for (std::size_t count = 1; first + count <= leaves; ++count) {
        out.emplace_back(first, count);
      }
    }
    return out;
  }
  return {{0, leaves},  {0, 1},  {leaves - 1, 1}, {1, leaves - 2},
          {leaves / 2, leaves - leaves / 2}, {31, 3}, {32, 1}, {17, 30}};
}

TEST(ProofSweep, EveryProofVerifiesAndNoSingleFieldEditDoes) {
  std::size_t checked = 0;
  for (const std::size_t leaves : kLeafCounts) {
    MerkleTree tree(leaves, crypto::HashKind::kSha256);
    for (std::size_t i = 0; i < leaves; ++i) {
      tree.set_leaf(i, mtree::Digest(support::ByteView(support::random_bytes(i + 1, 32))));
    }
    tree.flush();
    const support::Bytes root = tree.root_bytes();
    for (const auto& [first, count] : ranges_of(leaves)) {
      const MtreeProof proof = tree.prove_range(first, count);
      const std::string where = std::to_string(leaves) + " leaves, [" +
                                std::to_string(first) + ", +" + std::to_string(count) + ")";
      ASSERT_TRUE(proof.verify(root, leaves)) << where;
      for (const Edit& edit : single_field_edits(proof)) {
        // Including a total_leaves of the same padded width that still
        // holds the range: the root alone cannot tell it apart, the
        // expected width does.
        bool verified = true;
        EXPECT_NO_THROW(verified = edit.proof.verify(root, leaves)) << where << ", " << edit.what;
        EXPECT_FALSE(verified) << where << ", " << edit.what;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 4500u);
}

TEST(ProofSweep, VerifierNeverAcceptsAnEditedProof) {
  constexpr std::size_t kBlockSize = 64;
  const support::Bytes key = to_bytes("proof-sweep-key");
  for (const std::size_t blocks : kLeafCounts) {
    const support::Bytes golden = support::random_bytes(blocks, blocks * kBlockSize);
    sim::Simulator simulator;
    sim::Device device(simulator,
                       sim::DeviceConfig{"prv-proof", blocks * kBlockSize, kBlockSize, key});
    device.memory().load(golden);
    const std::size_t infected = blocks / 2;
    device.memory().write(infected * kBlockSize, to_bytes("x"), 0, sim::Actor::kMalware);
    Verifier verifier(crypto::HashKind::kSha256, key, golden, kBlockSize);
    ProverConfig config;
    config.use_merkle_tree = true;
    config.max_proof_leaves = 4;  // a first round proves every block
    AttestationProcess mp(device, config);
    Report report;
    mp.start({device.id(), verifier.issue(), 1},
             [&report](const AttestationResult& result) { report = result.report; });
    simulator.run();
    ASSERT_EQ(report.proofs.size(), (blocks + 3) / 4);

    const VerifyOutcome clean = verifier.verify(report);
    ASSERT_TRUE(clean.mac_ok && clean.tree_root_bound && clean.proofs_ok) << blocks;
    ASSERT_EQ(clean.localized.size(), 1u) << blocks;
    EXPECT_EQ(clean.localized[0].first, infected);
    EXPECT_EQ(clean.localized[0].count, 1u);

    for (std::size_t p = 0; p < report.proofs.size(); ++p) {
      for (const Edit& edit : single_field_edits(report.proofs[p])) {
        Report edited = report;
        edited.proofs[p] = edit.proof;
        authenticate_report(edited, key);
        VerifyOutcome outcome;
        EXPECT_NO_THROW(outcome = verifier.verify(edited, /*expect_challenge=*/false))
            << blocks << " blocks, proof " << p << ", " << edit.what;
        EXPECT_TRUE(outcome.mac_ok && outcome.tree_root_bound);
        EXPECT_FALSE(outcome.proofs_ok) << blocks << " blocks, proof " << p << ", "
                                        << edit.what;
        for (const BlockRange& range : outcome.localized) {
          EXPECT_LE(range.first + range.count, blocks)
              << blocks << " blocks, proof " << p << ", " << edit.what;
          EXPECT_GT(range.count, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace rasc::attest
