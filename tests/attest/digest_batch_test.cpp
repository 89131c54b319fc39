/// Batched digesting up the attest stack: BlockDigester::digest_batch,
/// Measurement::visit_blocks, the golden's batched constructor and the
/// prover's prime_tree_from must all be byte-identical to their scalar
/// per-block counterparts — same digests, same cache traffic, same journal
/// event stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/attest/golden.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/prover.hpp"
#include "src/obs/journal.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

TEST(DigestBatch, MatchesScalarDigestForEveryConfiguration) {
  const support::Bytes key = support::random_bytes(3, 16);
  for (const MacKind mac : {MacKind::kHmac, MacKind::kCbcMac}) {
    for (const auto hash : crypto::kAllHashKinds) {
      for (const std::size_t count :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
            std::size_t{5}, std::size_t{8}, std::size_t{9}, std::size_t{17}}) {
        std::vector<support::Bytes> blocks;
        std::vector<support::ByteView> views;
        std::vector<Digest> batch(count);
        std::vector<Digest*> outs;
        for (std::size_t i = 0; i < count; ++i) {
          blocks.push_back(support::random_bytes(0xb10c + 37 * i, 256));
          views.push_back(blocks[i]);
          outs.push_back(&batch[i]);
        }
        BlockDigester batch_digester(mac, hash, key);
        batch_digester.digest_batch(views, outs);
        BlockDigester scalar_digester(mac, hash, key);
        for (std::size_t i = 0; i < count; ++i) {
          Digest expected;
          scalar_digester.digest(views[i], expected);
          EXPECT_EQ(batch[i], expected)
              << mac_kind_name(mac) << "/" << crypto::hash_name(hash)
              << " count=" << count << " i=" << i;
        }
      }
    }
  }
}

TEST(DigestBatch, RejectsMismatchedSpans) {
  BlockDigester digester(MacKind::kHmac, crypto::HashKind::kSha256,
                         to_bytes("key"));
  const support::Bytes block = support::random_bytes(1, 64);
  const support::ByteView views[] = {block, block};
  Digest out;
  Digest* outs[] = {&out};
  EXPECT_THROW(digester.digest_batch(std::span<const support::ByteView>(views, 2),
                                     std::span<Digest* const>(outs, 1)),
               std::invalid_argument);
}

// --- visit_blocks ------------------------------------------------------------

constexpr std::size_t kBlocks = 24;
constexpr std::size_t kBlockSize = 128;

struct VisitFixture {
  sim::DeviceMemory scalar_mem{kBlocks * kBlockSize, kBlockSize};
  sim::DeviceMemory batch_mem{kBlocks * kBlockSize, kBlockSize};
  support::Bytes key = to_bytes("visit-batch-key");

  VisitFixture() {
    const support::Bytes image = support::random_bytes(0x77, kBlocks * kBlockSize);
    scalar_mem.load(image);
    batch_mem.load(image);
  }

  void dirty_both(std::size_t block, std::uint8_t value) {
    const support::Bytes patch{value};
    scalar_mem.write(block * kBlockSize, patch, /*now=*/5, sim::Actor::kApplication);
    batch_mem.write(block * kBlockSize, patch, /*now=*/5, sim::Actor::kApplication);
  }
};

/// Flattened journal comparison helper.
std::vector<std::tuple<std::uint64_t, int, std::uint64_t, std::uint64_t>>
journal_events(const obs::EventJournal& journal) {
  std::vector<std::tuple<std::uint64_t, int, std::uint64_t, std::uint64_t>> events;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const obs::JournalEvent& ev = journal.at(i);
    events.emplace_back(ev.time, static_cast<int>(ev.kind), ev.a, ev.b);
  }
  return events;
}

TEST(VisitBlocks, IdenticalToScalarVisitsWithCacheAndJournal) {
  for (const auto hash : {crypto::HashKind::kSha256, crypto::HashKind::kBlake2s,
                          crypto::HashKind::kSha512}) {
    VisitFixture fx;
    DigestCache scalar_cache, batch_cache;
    scalar_cache.resize(kBlocks);
    batch_cache.resize(kBlocks);
    obs::EventJournal scalar_journal, batch_journal;
    const std::uint32_t scalar_actor = scalar_journal.intern("prv");
    const std::uint32_t batch_actor = batch_journal.intern("prv");

    // Round 1 fills both caches; round 2 (after identical dirtying) mixes
    // hits and misses.  Every round must agree on bytes, cache counters
    // and the journal event stream.
    for (std::uint64_t round = 1; round <= 3; ++round) {
      if (round > 1) {
        fx.dirty_both(3, static_cast<std::uint8_t>(round));
        fx.dirty_both(17, static_cast<std::uint8_t>(round + 100));
      }
      const MeasurementContext context{"prv", {}, round};
      Measurement scalar(fx.scalar_mem, hash, fx.key, context);
      scalar.set_digest_cache(&scalar_cache);
      scalar.set_journal(&scalar_journal, scalar_actor);
      Measurement batch(fx.batch_mem, hash, fx.key, context);
      batch.set_digest_cache(&batch_cache);
      batch.set_journal(&batch_journal, batch_actor);

      std::vector<std::size_t> order;
      for (std::size_t b = 0; b < kBlocks; ++b) order.push_back(b);
      // Non-trivial visit order: batching must preserve caller order.
      std::rotate(order.begin(), order.begin() + 7, order.end());

      for (const std::size_t b : order) scalar.visit_block(b, /*now=*/round * 10);
      batch.visit_blocks(order, /*now=*/round * 10);

      EXPECT_EQ(scalar.finalize(), batch.finalize())
          << crypto::hash_name(hash) << " round " << round;
      EXPECT_EQ(scalar_cache.hits(), batch_cache.hits());
      EXPECT_EQ(scalar_cache.misses(), batch_cache.misses());
      EXPECT_EQ(scalar_cache.stores(), batch_cache.stores());
      EXPECT_EQ(journal_events(scalar_journal), journal_events(batch_journal))
          << crypto::hash_name(hash) << " round " << round;
    }
  }
}

TEST(VisitBlocks, ContentOverloadMatchesScalarAndBypassesCache) {
  VisitFixture fx;
  DigestCache cache;
  cache.resize(kBlocks);

  // Redirected contents (as a snapshotting lock policy supplies them)
  // must be digested verbatim and never touch the cache.
  std::vector<support::Bytes> snapshots;
  std::vector<support::ByteView> contents;
  std::vector<std::size_t> order;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    snapshots.push_back(support::random_bytes(0x5a + b, kBlockSize));
    order.push_back(b);
  }
  for (std::size_t b = 0; b < kBlocks; ++b) contents.push_back(snapshots[b]);

  const MeasurementContext context{"prv", {}, 9};
  Measurement scalar(fx.scalar_mem, crypto::HashKind::kSha256, fx.key, context);
  Measurement batch(fx.batch_mem, crypto::HashKind::kSha256, fx.key, context);
  batch.set_digest_cache(&cache);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    scalar.visit_block(b, /*now=*/1, contents[b]);
  }
  batch.visit_blocks(order, /*now=*/1, contents);
  EXPECT_EQ(scalar.finalize(), batch.finalize());
  EXPECT_EQ(cache.hits() + cache.misses(), 0u)
      << "redirected content consulted the generation-keyed cache";
}

TEST(VisitBlocks, OutOfCoverageThrows) {
  VisitFixture fx;
  Measurement m(fx.scalar_mem, crypto::HashKind::kSha256, fx.key,
                MeasurementContext{"prv", {}, 1});
  const std::size_t bad[] = {kBlocks};
  EXPECT_THROW(m.visit_blocks(std::span<const std::size_t>(bad, 1), 0),
               std::out_of_range);
}

// --- golden + prover priming -------------------------------------------------

TEST(GoldenBatch, BatchedConstructorMatchesPerBlockDigests) {
  const support::Bytes key = to_bytes("golden-batch-key");
  const support::Bytes image = support::random_bytes(0x601d, kBlocks * kBlockSize);
  for (const auto hash : crypto::kAllHashKinds) {
    GoldenMeasurement golden(image, kBlockSize, hash, key);
    BlockDigester digester(MacKind::kHmac, hash, key);
    ASSERT_EQ(golden.block_count(), kBlocks);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      Digest expected;
      digester.digest(
          support::ByteView(image).subspan(b * kBlockSize, kBlockSize), expected);
      EXPECT_EQ(golden.block_digest(b), expected) << crypto::hash_name(hash);
      EXPECT_EQ(golden.block_digests()[b], expected);
    }
  }
}

TEST(PrimeTreeFrom, MatchesPrimeTree) {
  sim::Simulator simulator;
  const support::Bytes key = to_bytes("prime-key");
  const support::Bytes image = support::random_bytes(0x41, kBlocks * kBlockSize);
  sim::Device scalar_dev(simulator, sim::DeviceConfig{"dev-a", kBlocks * kBlockSize,
                                                      kBlockSize, key});
  sim::Device batch_dev(simulator, sim::DeviceConfig{"dev-b", kBlocks * kBlockSize,
                                                     kBlockSize, key});
  scalar_dev.memory().load(image);
  batch_dev.memory().load(image);

  ProverConfig config;
  config.use_merkle_tree = true;
  AttestationProcess scalar_mp(scalar_dev, config);
  AttestationProcess batch_mp(batch_dev, config);

  scalar_mp.prime_tree();
  GoldenMeasurement golden(image, kBlockSize, crypto::HashKind::kSha256, key);
  batch_mp.prime_tree_from(golden.block_digests());

  ASSERT_NE(scalar_mp.tree(), nullptr);
  ASSERT_NE(batch_mp.tree(), nullptr);
  EXPECT_EQ(scalar_mp.tree()->root_bytes(), batch_mp.tree()->root_bytes());
  EXPECT_TRUE(batch_mp.tree()->primed());
  EXPECT_TRUE(batch_mp.tree()->dirty_blocks().empty());

  // Priming wired the generation observer: a write after priming is the
  // only dirtiness the next refresh sees, on both paths.
  const support::Bytes patch{0xff};
  scalar_dev.memory().write(5 * kBlockSize, patch, 1, sim::Actor::kMalware);
  batch_dev.memory().write(5 * kBlockSize, patch, 1, sim::Actor::kMalware);
  EXPECT_EQ(scalar_mp.tree()->dirty_blocks(), batch_mp.tree()->dirty_blocks());

  EXPECT_THROW(batch_mp.prime_tree_from(std::span<const Digest>()),
               std::invalid_argument);
}

}  // namespace
}  // namespace rasc::attest
