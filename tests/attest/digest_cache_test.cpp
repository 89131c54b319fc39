#include "src/attest/digest_cache.hpp"

#include <gtest/gtest.h>

#include "src/attest/measurement.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/stack.hpp"
#include "src/malware/relocating.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/device.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

sim::DeviceMemory make_memory(std::uint64_t seed = 1) {
  sim::DeviceMemory mem(kBlocks * kBlockSize, kBlockSize);
  mem.load(support::random_bytes(seed, mem.size()));
  return mem;
}

MeasurementContext ctx(std::uint64_t counter = 1) {
  return MeasurementContext{"dev-1", to_bytes("challenge"), counter};
}

/// Full cached pass over memory; returns the finalized measurement.
support::Bytes measure(const sim::DeviceMemory& mem, DigestCache& cache,
                       support::ByteView key, std::uint64_t counter = 1,
                       crypto::HashKind hash = crypto::HashKind::kSha256,
                       MacKind mac = MacKind::kHmac) {
  Measurement m(mem, hash, key, ctx(counter), {}, mac);
  m.set_digest_cache(&cache);
  for (std::size_t b = 0; b < kBlocks; ++b) m.visit_block(b, b);
  return m.finalize();
}

TEST(DigestCache, WarmPassMissesThenHits) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  const auto first = measure(mem, cache, to_bytes("k"));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), kBlocks);
  EXPECT_EQ(cache.stores(), kBlocks);
  const auto second = measure(mem, cache, to_bytes("k"));
  EXPECT_EQ(cache.hits(), kBlocks);
  EXPECT_EQ(cache.misses(), kBlocks);
  // Same context -> same measurement; hits change nothing observable.
  EXPECT_EQ(first, second);
}

TEST(DigestCache, CachedResultBitIdenticalToUncached) {
  for (const MacKind mac : {MacKind::kHmac, MacKind::kCbcMac}) {
    auto mem = make_memory();
    DigestCache cache;
    cache.resize(kBlocks);
    measure(mem, cache, to_bytes("k"), 1, crypto::HashKind::kSha256, mac);  // warm
    const auto cached = measure(mem, cache, to_bytes("k"), 2, crypto::HashKind::kSha256, mac);

    Measurement plain(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx(2), {}, mac);
    for (std::size_t b = 0; b < kBlocks; ++b) plain.visit_block(b, b);
    EXPECT_EQ(cached, plain.finalize());
  }
}

TEST(DigestCache, WriteForcesRehashOfExactlyTouchedBlocks) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  const auto before = measure(mem, cache, to_bytes("k"), 1);
  // Write spanning blocks 2 and 3.
  ASSERT_TRUE(mem.write(3 * kBlockSize - 2, to_bytes("wxyz"), 10, sim::Actor::kApplication));
  const auto after = measure(mem, cache, to_bytes("k"), 1);
  EXPECT_EQ(cache.hits(), kBlocks - 2);
  EXPECT_EQ(cache.misses(), kBlocks + 2);  // warm pass + the two dirty blocks
  EXPECT_NE(before, after);
}

TEST(DigestCache, ZeroRegionInvalidatesTouchedBlocks) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  measure(mem, cache, to_bytes("k"), 1);
  ASSERT_TRUE(mem.zero_region(4 * kBlockSize, kBlockSize, 10, sim::Actor::kMeasurement));
  measure(mem, cache, to_bytes("k"), 1);
  EXPECT_EQ(cache.hits(), kBlocks - 1);
  EXPECT_EQ(cache.misses(), kBlocks + 1);
}

TEST(DigestCache, LoadInvalidatesTouchedBlocks) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  const auto before = measure(mem, cache, to_bytes("k"), 1);
  mem.load(support::Bytes(2 * kBlockSize, 0xab), /*addr=*/0);
  const auto after = measure(mem, cache, to_bytes("k"), 1);
  EXPECT_EQ(cache.hits(), kBlocks - 2);
  EXPECT_NE(before, after);
}

TEST(DigestCache, MpuRejectedWriteDoesNotInvalidate) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  const auto before = measure(mem, cache, to_bytes("k"), 1);
  mem.lock_block(5);
  ASSERT_FALSE(mem.write(5 * kBlockSize, to_bytes("evil"), 10, sim::Actor::kMalware));
  mem.unlock_block(5);
  const auto after = measure(mem, cache, to_bytes("k"), 1);
  EXPECT_EQ(cache.hits(), kBlocks);  // every block still served from cache
  EXPECT_EQ(before, after);
}

TEST(DigestCache, MalwareRelocationForcesRehashAndDetection) {
  sim::Simulator simulator;
  sim::DeviceConfig dev_config;
  dev_config.id = "prv";
  dev_config.memory_size = kBlocks * kBlockSize;
  dev_config.block_size = kBlockSize;
  sim::Device device(simulator, dev_config);
  device.memory().load(support::random_bytes(7, device.memory().size()));
  const support::Bytes golden = device.memory().snapshot();

  DigestCache cache;
  cache.resize(kBlocks);
  const auto clean = measure(device.memory(), cache, to_bytes("k"), 1);
  EXPECT_EQ(clean, Measurement::expected(golden, kBlockSize, crypto::HashKind::kSha256,
                                         to_bytes("k"), ctx(1)));

  malware::RelocatingConfig mc;
  mc.initial_block = 2;
  malware::SelfRelocatingMalware malware(device, mc);
  malware.infect_initial();  // writes its body into block 2

  const auto infected = measure(device.memory(), cache, to_bytes("k"), 1);
  // Exactly the infected block was rehashed; the rest came from the cache.
  EXPECT_EQ(cache.hits(), kBlocks - 1);
  EXPECT_EQ(cache.misses(), kBlocks + 1);
  // Caching must not mask the infection.
  EXPECT_NE(infected, Measurement::expected(golden, kBlockSize, crypto::HashKind::kSha256,
                                            to_bytes("k"), ctx(1)));
}

TEST(DigestCache, KeyedPerAlgorithmAndKey) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  measure(mem, cache, to_bytes("k1"), 1);
  // Different key: fingerprints differ, so no (false) hits.
  measure(mem, cache, to_bytes("k2"), 1);
  EXPECT_EQ(cache.hits(), 0u);
  // Different hash kind: also all misses.
  measure(mem, cache, to_bytes("k2"), 1, crypto::HashKind::kSha512);
  EXPECT_EQ(cache.hits(), 0u);
  // Different MAC kind (encryption-based F): still no hits.
  measure(mem, cache, to_bytes("k2"), 1, crypto::HashKind::kSha512, MacKind::kCbcMac);
  EXPECT_EQ(cache.hits(), 0u);
  // Repeating the last configuration finally hits.
  measure(mem, cache, to_bytes("k2"), 1, crypto::HashKind::kSha512, MacKind::kCbcMac);
  EXPECT_EQ(cache.hits(), kBlocks);
}

TEST(DigestCache, SnapshotContentBypassesCache) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  Measurement m(mem, crypto::HashKind::kSha256, to_bytes("k"), ctx());
  m.set_digest_cache(&cache);
  // Content copied out of memory (what a Cpy-Lock snapshot hands over) is
  // not the live block, so the cache must be neither consulted nor filled.
  const support::Bytes copy(mem.block_view(0).begin(), mem.block_view(0).end());
  m.visit_block(0, 1, copy);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.stores(), 0u);
  // The live block does go through the cache.
  m.visit_block(1, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stores(), 1u);
}

TEST(DigestCache, ExportsMetrics) {
  auto mem = make_memory();
  DigestCache cache;
  cache.resize(kBlocks);
  measure(mem, cache, to_bytes("k"), 1);
  measure(mem, cache, to_bytes("k"), 2);
  obs::MetricsRegistry metrics;
  export_metrics(metrics, cache);
  ASSERT_NE(metrics.find_counter("digest_cache.hit"), nullptr);
  ASSERT_NE(metrics.find_counter("digest_cache.miss"), nullptr);
  ASSERT_NE(metrics.find_counter("digest_cache.store"), nullptr);
  EXPECT_EQ(metrics.find_counter("digest_cache.hit")->value(), kBlocks);
  EXPECT_EQ(metrics.find_counter("digest_cache.miss")->value(), kBlocks);
  EXPECT_EQ(metrics.find_counter("digest_cache.store")->value(), kBlocks);
}

TEST(DigestCache, ProverOwnedCachePersistsAcrossMeasurements) {
  sim::Simulator simulator;
  sim::DeviceConfig dev_config;
  dev_config.id = "prv";
  dev_config.memory_size = kBlocks * kBlockSize;
  dev_config.block_size = kBlockSize;
  sim::Device device(simulator, dev_config);
  device.memory().load(support::Bytes(device.memory().size(), 0x11));

  ProverConfig config;
  config.mode = ExecutionMode::kAtomic;
  AttestationProcess mp(device, config);

  for (std::uint64_t round = 1; round <= 2; ++round) {
    bool done = false;
    mp.start(MeasurementContext{device.id(), {}, round},
             [&](AttestationResult) { done = true; });
    simulator.run();
    ASSERT_TRUE(done);
  }
  // Second round served entirely from the process-owned cache.
  EXPECT_EQ(mp.digest_cache().hits(), kBlocks);
  EXPECT_EQ(mp.digest_cache().misses(), kBlocks);
}

}  // namespace
}  // namespace rasc::attest
