/// Tree-mode attestation end to end: the prover maintains an incremental
/// Merkle tree, reports carry the root + subtree proofs, and the verifier
/// localizes divergent block ranges (ISSUE 8 tentpole).

#include <gtest/gtest.h>

#include <tuple>

#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/obs/journal.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

constexpr std::size_t kBlocks = 32;
constexpr std::size_t kBlockSize = 256;

struct Fixture {
  sim::Simulator simulator;
  sim::Device device;
  Verifier verifier;

  Fixture()
      : device(simulator, sim::DeviceConfig{"dev-t", kBlocks * kBlockSize,
                                            kBlockSize, to_bytes("tree-test-key")}),
        verifier(crypto::HashKind::kSha256, to_bytes("tree-test-key"),
                 [&] {
                   support::Bytes image = support::random_bytes(23, kBlocks * kBlockSize);
                   device.memory().load(image);
                   return image;
                 }(),
                 kBlockSize) {}

  void infect(std::size_t block) {
    const support::Bytes patch{
        static_cast<std::uint8_t>(device.memory().block_view(block)[0] ^ 0xff)};
    device.memory().write(block * kBlockSize, patch, /*now=*/0, sim::Actor::kMalware);
  }
};

ProverConfig tree_config() {
  ProverConfig config;
  config.mode = ExecutionMode::kInterruptible;
  config.use_merkle_tree = true;
  return config;
}

AttestationResult run_one(Fixture& fx, AttestationProcess& mp,
                          std::uint64_t counter = 1) {
  AttestationResult out;
  bool done = false;
  mp.start(MeasurementContext{fx.device.id(), fx.verifier.issue_challenge(), counter},
           [&](AttestationResult result) {
             out = std::move(result);
             done = true;
           });
  fx.simulator.run();
  EXPECT_TRUE(done);
  return out;
}

TEST(TreeProver, HealthyRoundVerifiesAndCarriesRoot) {
  Fixture fx;
  AttestationProcess mp(fx.device, tree_config());
  const auto result = run_one(fx, mp);
  EXPECT_FALSE(result.report.tree_root.empty());
  const VerifyOutcome verdict = fx.verifier.verify(result.report);
  EXPECT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.used_tree);
  EXPECT_TRUE(verdict.tree_root_bound);
  EXPECT_TRUE(verdict.proofs_ok);
  EXPECT_TRUE(verdict.localized.empty());
  EXPECT_EQ(verdict.total_blocks, kBlocks);
}

TEST(TreeProver, PrimedRoundVisitsOnlyDirtyBlocks) {
  Fixture fx;
  AttestationProcess mp(fx.device, tree_config());
  mp.prime_tree();
  // Round 1: nothing written since priming -> zero blocks visited.
  const auto r1 = run_one(fx, mp, 1);
  EXPECT_TRUE(r1.order.empty());
  EXPECT_TRUE(fx.verifier.verify(r1.report).ok());

  // Dirty two blocks; round 2 visits exactly those.
  fx.device.memory().write(5 * kBlockSize, to_bytes("x"), 0, sim::Actor::kApplication);
  fx.device.memory().write(9 * kBlockSize, to_bytes("y"), 0, sim::Actor::kApplication);
  const auto r2 = run_one(fx, mp, 2);
  EXPECT_EQ(r2.order, (std::vector<std::size_t>{5, 9}));
  // Application writes changed content away from the golden image.
  const VerifyOutcome verdict = fx.verifier.verify(r2.report);
  EXPECT_FALSE(verdict.ok());
  ASSERT_EQ(verdict.localized.size(), 2u);
  EXPECT_EQ(verdict.localized[0].first, 5u);
  EXPECT_EQ(verdict.localized[0].count, 1u);
  EXPECT_EQ(verdict.localized[1].first, 9u);
  EXPECT_EQ(verdict.localized[1].count, 1u);
}

TEST(TreeProver, UnprimedProverVisitsEverythingOnceThenOnlyWrittenBlocks) {
  Fixture fx;
  AttestationProcess mp(fx.device, tree_config());
  const auto r1 = run_one(fx, mp, 1);
  EXPECT_EQ(r1.order.size(), kBlocks);

  // Round 2 visits exactly the blocks written since round 1, whatever
  // order they were written in.
  fx.infect(21);
  fx.infect(6);
  const auto r2 = run_one(fx, mp, 2);
  EXPECT_EQ(r2.order, (std::vector<std::size_t>{6, 21}));

  // The same tree a prover primed over the same content holds.
  Fixture same;
  same.infect(21);
  same.infect(6);
  AttestationProcess primed(same.device, tree_config());
  primed.prime_tree();
  EXPECT_EQ(mp.tree()->root_bytes(), primed.tree()->root_bytes());

  const VerifyOutcome verdict = fx.verifier.verify(r2.report);
  EXPECT_FALSE(verdict.ok());
  ASSERT_EQ(verdict.localized.size(), 2u);
  EXPECT_EQ(verdict.localized[0].first, 6u);
  EXPECT_EQ(verdict.localized[0].count, 1u);
  EXPECT_EQ(verdict.localized[1].first, 21u);
  EXPECT_EQ(verdict.localized[1].count, 1u);
}

TEST(TreeProver, LocalizesContiguousInfectedRangeExactly) {
  Fixture fx;
  AttestationProcess mp(fx.device, tree_config());
  mp.prime_tree();
  for (std::size_t b = 12; b < 15; ++b) fx.infect(b);
  const auto result = run_one(fx, mp);
  const VerifyOutcome verdict = fx.verifier.verify(result.report);
  EXPECT_FALSE(verdict.digest_ok);
  EXPECT_TRUE(verdict.mac_ok);
  ASSERT_EQ(verdict.localized.size(), 1u);
  EXPECT_EQ(verdict.localized.front().first, 12u);
  EXPECT_EQ(verdict.localized.front().count, 3u);
}

TEST(TreeProver, ProofBacklogSurvivesUnacknowledgedRounds) {
  Fixture fx;
  AttestationProcess mp(fx.device, tree_config());
  mp.prime_tree();
  fx.infect(20);
  // Round 1's report is "lost": the backlog is not cleared.
  const auto r1 = run_one(fx, mp, 1);
  ASSERT_EQ(r1.report.proofs.size(), 1u);
  // Round 2 visits nothing (block 20 already re-hashed) but must STILL
  // prove the infected block, or a dropped report loses localization.
  const auto r2 = run_one(fx, mp, 2);
  EXPECT_TRUE(r2.order.empty());
  ASSERT_EQ(r2.report.proofs.size(), 1u);
  EXPECT_EQ(r2.report.proofs.front().first_leaf, 20u);
  const VerifyOutcome verdict = fx.verifier.verify(r2.report);
  ASSERT_EQ(verdict.localized.size(), 1u);
  EXPECT_EQ(verdict.localized.front().first, 20u);

  // Acknowledge: the next round proves nothing new.
  mp.clear_proof_backlog();
  const auto r3 = run_one(fx, mp, 3);
  EXPECT_TRUE(r3.report.proofs.empty());
  // Still judged compromised (root mismatch), just not re-localized.
  const VerifyOutcome v3 = fx.verifier.verify(r3.report);
  EXPECT_FALSE(v3.ok());
  EXPECT_TRUE(v3.localized.empty());
}

TEST(TreeProver, LongDirtyRunsSplitIntoCappedProofs) {
  Fixture fx;
  ProverConfig config = tree_config();
  config.max_proof_leaves = 4;
  AttestationProcess mp(fx.device, config);
  mp.prime_tree();
  for (std::size_t b = 0; b < 10; ++b) fx.infect(b);
  const auto result = run_one(fx, mp);
  ASSERT_EQ(result.report.proofs.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(result.report.proofs[0].leaf_count, 4u);
  EXPECT_EQ(result.report.proofs[2].leaf_count, 2u);
  // The verifier re-merges the split proofs into one contiguous range.
  const VerifyOutcome verdict = fx.verifier.verify(result.report);
  ASSERT_EQ(verdict.localized.size(), 1u);
  EXPECT_EQ(verdict.localized.front().first, 0u);
  EXPECT_EQ(verdict.localized.front().count, 10u);
}

TEST(TreeProver, TamperedProofDoesNotSteerLocalization) {
  Fixture fx;
  AttestationProcess mp(fx.device, tree_config());
  mp.prime_tree();
  fx.infect(7);
  auto result = run_one(fx, mp);
  ASSERT_FALSE(result.report.proofs.empty());
  // Malware rewrites the proof to point at an innocent range.  The MAC no
  // longer matches the mutated body, so nothing is localized and the MAC
  // failure is reported.
  result.report.proofs.front().first_leaf = 0;
  const VerifyOutcome verdict = fx.verifier.verify(result.report);
  EXPECT_FALSE(verdict.mac_ok);
  EXPECT_TRUE(verdict.localized.empty());
}

TEST(TreeProver, ForgedRootFailsBinding) {
  Fixture fx;
  AttestationProcess mp(fx.device, tree_config());
  mp.prime_tree();
  auto result = run_one(fx, mp);
  result.report.tree_root[0] ^= 0x01;
  const VerifyOutcome verdict = fx.verifier.verify(result.report);
  EXPECT_FALSE(verdict.mac_ok);  // the MAC covers the trailer
  EXPECT_TRUE(verdict.localized.empty());
}

TEST(TreeProver, TreeModeRejectsPartialCoverageAndZeroRegion) {
  Fixture fx;
  {
    ProverConfig config = tree_config();
    config.coverage = Coverage{0, kBlocks / 2};
    AttestationProcess mp(fx.device, config);
    EXPECT_THROW(mp.start(MeasurementContext{fx.device.id(), {}, 1},
                          [](AttestationResult) {}),
                 std::logic_error);
  }
  {
    ProverConfig config = tree_config();
    config.zero_region = Coverage{0, 1};
    AttestationProcess mp(fx.device, config);
    EXPECT_THROW(mp.start(MeasurementContext{fx.device.id(), {}, 1},
                          [](AttestationResult) {}),
                 std::logic_error);
  }
}

TEST(TreeProver, FlatReportsStayByteIdenticalWhenTreeOff) {
  // Feature-off regression: a prover without use_merkle_tree emits the
  // exact legacy wire bytes (no trailer), and the verifier treats it as a
  // flat report.
  Fixture fx_flat, fx_tree;
  ProverConfig flat;
  flat.mode = ExecutionMode::kInterruptible;
  AttestationProcess mp(fx_flat.device, flat);
  const auto result = run_one(fx_flat, mp);
  EXPECT_TRUE(result.report.tree_root.empty());
  EXPECT_TRUE(result.report.proofs.empty());
  const VerifyOutcome verdict = fx_flat.verifier.verify(result.report);
  EXPECT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.used_tree);
  EXPECT_TRUE(verdict.localized.empty());
}

TEST(TreeProver, ShuffledTraversalStillLocalizes) {
  Fixture fx;
  ProverConfig config = tree_config();
  config.order = TraversalOrder::kShuffledSecret;
  AttestationProcess mp(fx.device, config);
  mp.prime_tree();
  for (std::size_t b = 3; b < 6; ++b) fx.infect(b);
  const auto result = run_one(fx, mp);
  const VerifyOutcome verdict = fx.verifier.verify(result.report);
  ASSERT_EQ(verdict.localized.size(), 1u);
  EXPECT_EQ(verdict.localized.front().first, 3u);
  EXPECT_EQ(verdict.localized.front().count, 3u);
}

/// Two rounds of a primed tree-mode prover in `mode` over a fresh Fixture,
/// with the same dirty blocks and contexts whatever the mode.
struct TreeRounds {
  std::vector<support::Bytes> roots;
  std::vector<Report> reports;
  /// Digest-cache journal events as (kind, block, generation).
  std::vector<std::tuple<obs::JournalEventKind, std::uint64_t, std::uint64_t>>
      cache_events;
};

TreeRounds run_tree_rounds(ExecutionMode mode) {
  Fixture fx;
  obs::EventJournal journal;
  fx.simulator.set_journal(&journal);
  ProverConfig config = tree_config();
  config.mode = mode;
  AttestationProcess mp(fx.device, config);
  mp.prime_tree();
  TreeRounds out;
  const std::vector<std::vector<std::size_t>> dirty{{3, 4, 5, 17, 30}, {0, 4, 31}};
  for (std::size_t round = 0; round < dirty.size(); ++round) {
    for (std::size_t block : dirty[round]) fx.infect(block);
    mp.start(MeasurementContext{fx.device.id(), to_bytes("one-challenge"), round + 1},
             [&](AttestationResult result) {
               out.reports.push_back(std::move(result.report));
             });
    fx.simulator.run();
    out.roots.push_back(mp.tree()->root_bytes());
  }
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const obs::JournalEvent& ev = journal.at(i);
    if (ev.kind == obs::JournalEventKind::kCacheHit ||
        ev.kind == obs::JournalEventKind::kCacheMiss) {
      out.cache_events.emplace_back(ev.kind, ev.a, ev.b);
    }
  }
  return out;
}

TEST(TreeProver, BothExecutionModesLandTheSameDigests) {
  // One digest per step or one multi-lane batch: both modes visit through
  // the measurement and land each digest with apply_digest.
  const TreeRounds stepped = run_tree_rounds(ExecutionMode::kInterruptible);
  const TreeRounds atomic = run_tree_rounds(ExecutionMode::kAtomic);
  ASSERT_EQ(stepped.reports.size(), 2u);
  ASSERT_EQ(atomic.reports.size(), 2u);
  EXPECT_EQ(stepped.roots, atomic.roots);
  for (std::size_t r = 0; r < 2; ++r) {
    const Report& a = stepped.reports[r];
    const Report& b = atomic.reports[r];
    EXPECT_EQ(a.tree_root, stepped.roots[r]);
    EXPECT_EQ(a.measurement, b.measurement);
    ASSERT_EQ(a.proofs.size(), b.proofs.size());
    for (std::size_t p = 0; p < a.proofs.size(); ++p) {
      EXPECT_EQ(a.proofs[p].serialize(), b.proofs[p].serialize()) << r << "/" << p;
    }
  }
  // Every visited block was looked up in the digest cache, in visit order.
  EXPECT_EQ(stepped.cache_events.size(), 8u);
  EXPECT_EQ(stepped.cache_events, atomic.cache_events);
}

}  // namespace
}  // namespace rasc::attest
