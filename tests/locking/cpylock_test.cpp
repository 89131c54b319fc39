#include <gtest/gtest.h>

#include "src/apps/scenario.hpp"
#include "src/locking/consistency.hpp"
#include "src/locking/policies.hpp"
#include "src/support/rng.hpp"

namespace rasc::locking {
namespace {

using apps::AdversaryKind;
using apps::LockScenarioConfig;
using apps::run_lock_scenario;

LockScenarioConfig config_with(AdversaryKind adversary, bool writer = false) {
  LockScenarioConfig config;
  config.blocks = 32;
  config.block_size = 512;
  config.mode = attest::ExecutionMode::kInterruptible;
  config.lock = LockMechanism::kCpyLock;
  config.adversary = adversary;
  config.writer_enabled = writer;
  return config;
}

TEST(CpyLock, NameAndFactory) {
  auto policy = make_lock_policy(LockMechanism::kCpyLock);
  EXPECT_EQ(policy->name(), "Cpy-Lock");
  EXPECT_TRUE(policy->snapshots_at_start());
  EXPECT_EQ(policy->release_delay(), 0u);
}

TEST(CpyLock, StartCostIsCopyCost) {
  auto policy = make_lock_policy(LockMechanism::kCpyLock);
  sim::CpuModel model;
  EXPECT_EQ(policy->start_cost(model, 1 << 20), model.copy_time(1 << 20));
  EXPECT_GT(policy->start_cost(model, 1 << 20), 0u);
}

TEST(CpyLock, BlockSourceRedirectsToSnapshot) {
  sim::DeviceMemory mem(8 * 64, 64);
  mem.load(support::Bytes(8 * 64, 0xaa));
  auto policy = make_lock_policy(LockMechanism::kCpyLock);
  policy->on_start(mem, attest::Coverage{0, 8});
  // Mutate live memory after the snapshot.
  (void)mem.write(0, support::Bytes(64, 0xbb), 1, sim::Actor::kApplication);
  const auto view = policy->block_source(mem, 0);
  EXPECT_EQ(view[0], 0xaa);  // snapshot content, not live
  EXPECT_EQ(mem.block_view(0)[0], 0xbb);
  policy->on_end(mem, attest::Coverage{0, 8});
  // After release, reads fall back to live memory.
  EXPECT_EQ(policy->block_source(mem, 0)[0], 0xbb);
}

TEST(CpyLock, NeverLocksMemory) {
  sim::DeviceMemory mem(8 * 64, 64);
  auto policy = make_lock_policy(LockMechanism::kCpyLock);
  policy->on_start(mem, attest::Coverage{0, 8});
  policy->on_block_visited(mem, 3);
  EXPECT_EQ(mem.locked_block_count(), 0u);
}

TEST(CpyLock, FullAvailabilityDuringMeasurement) {
  const auto outcome = run_lock_scenario(config_with(AdversaryKind::kNone, true));
  ASSERT_TRUE(outcome.completed);
  EXPECT_GT(outcome.writer_attempts_during, 0u);
  EXPECT_DOUBLE_EQ(outcome.writer_availability, 1.0);
}

TEST(CpyLock, BenignWritesDuringMeasurementDoNotPolluteTheReport) {
  // The decisive advantage over No-Lock: live writes *during* the
  // measurement do not corrupt the report — F runs over the t_s snapshot.
  sim::Simulator simulator;
  sim::Device device(simulator, sim::DeviceConfig{"dev-cpy", 32 * 512, 512,
                                                  support::to_bytes("cpy-key")});
  const support::Bytes image = support::random_bytes(4, device.memory().size());
  device.memory().load(image);
  attest::Verifier verifier(crypto::HashKind::kSha256, support::to_bytes("cpy-key"),
                            device.memory().snapshot(), 512);

  auto policy = make_lock_policy(LockMechanism::kCpyLock);
  attest::ProverConfig prover_config;
  prover_config.mode = attest::ExecutionMode::kInterruptible;
  attest::AttestationProcess mp(device, prover_config, policy.get());

  // App writes land mid-measurement (32 blocks * ~9 us each).
  const sim::Time t_mp = 10 * sim::kMillisecond;
  for (int i = 1; i <= 5; ++i) {
    simulator.schedule_at(t_mp + i * 40 * sim::kMicrosecond, [&, i] {
      (void)device.memory().write(static_cast<std::size_t>(i) * 512 + 9,
                                  support::to_bytes("live-data"), simulator.now(),
                                  sim::Actor::kApplication);
    });
  }

  attest::VerifyOutcome outcome;
  std::optional<attest::AttestationResult> attestation;
  simulator.schedule_at(t_mp, [&] {
    const auto challenge = verifier.issue_challenge();
    mp.start(attest::MeasurementContext{device.id(), challenge, 1},
             [&](attest::AttestationResult result) {
               outcome = verifier.verify(result.report);
               attestation = std::move(result);
             });
  });
  simulator.run();

  ASSERT_TRUE(attestation.has_value());
  EXPECT_TRUE(outcome.ok());  // live writes invisible to the snapshot
  EXPECT_NE(device.memory().snapshot(), image);  // yet they really happened
  ConsistencyAnalyzer analyzer(*attestation, device.memory().write_log(), 0);
  EXPECT_TRUE(analyzer.verdict().at_ts);
}

TEST(CpyLock, DetectsTransientPresentAtTs) {
  // The body is in the snapshot; erasing live memory afterwards is futile.
  const auto outcome = run_lock_scenario(config_with(AdversaryKind::kTransientLeaver));
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

TEST(CpyLock, DetectsChaseAttack) {
  const auto outcome = run_lock_scenario(config_with(AdversaryKind::kRelocChase));
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

TEST(CpyLock, DetectsRovingAttack) {
  const auto outcome = run_lock_scenario(config_with(AdversaryKind::kRelocRoving));
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);
}

}  // namespace
}  // namespace rasc::locking
