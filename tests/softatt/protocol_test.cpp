#include "src/softatt/protocol.hpp"

#include <gtest/gtest.h>

#include "src/support/rng.hpp"

namespace rasc::softatt {
namespace {

using support::to_bytes;

struct SoftAttFixture {
  sim::Simulator simulator;
  sim::Device device;
  support::Bytes golden;
  sim::Link down;
  sim::Link up;

  explicit SoftAttFixture(sim::Duration jitter = 0)
      : device(simulator, sim::DeviceConfig{"dev-sa", 16 * 1024, 1024, to_bytes("k")}),
        down(simulator, link_config(jitter, 1)),
        up(simulator, link_config(jitter, 2)) {
    golden = support::random_bytes(6, device.memory().size());
    device.memory().load(golden);
  }

  static sim::LinkConfig link_config(sim::Duration jitter, std::uint64_t seed) {
    sim::LinkConfig config;
    config.base_latency = sim::kMillisecond;
    config.jitter = jitter;
    config.bytes_per_second = 0;
    config.seed = seed;
    return config;
  }

  SoftAttOutcome run_once(ProverBehavior behavior, SoftAttConfig config = {}) {
    SoftwareAttestation protocol(device, golden, down, up, config);
    SoftAttOutcome outcome;
    protocol.run(behavior, 1, [&](SoftAttOutcome o) { outcome = o; });
    simulator.run();
    return outcome;
  }
};

TEST(SoftAtt, HonestCleanProverAccepted) {
  SoftAttFixture fx;
  const auto outcome = fx.run_once(ProverBehavior::kHonest);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.checksum_ok);
  EXPECT_TRUE(outcome.on_time);
  EXPECT_TRUE(outcome.accepted);
}

TEST(SoftAtt, HonestInfectedProverRejectedByValue) {
  SoftAttFixture fx;
  (void)fx.device.memory().write(5000, to_bytes("malware!"), 0, sim::Actor::kMalware);
  const auto outcome = fx.run_once(ProverBehavior::kHonest);
  ASSERT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.checksum_ok);
  EXPECT_TRUE(outcome.on_time);  // no delay, just the wrong value
  EXPECT_FALSE(outcome.accepted);
}

TEST(SoftAtt, ShadowingProverRejectedByTime) {
  // Malware redirects reads to the pristine copy: value right, too slow.
  SoftAttFixture fx;
  (void)fx.device.memory().write(5000, to_bytes("malware!"), 0, sim::Actor::kMalware);
  const auto outcome = fx.run_once(ProverBehavior::kShadowing);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.checksum_ok);
  EXPECT_FALSE(outcome.on_time);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_GT(outcome.response_time, outcome.deadline);
}

TEST(SoftAtt, ShadowingSlowdownMatchesOverheadFactor) {
  SoftAttFixture fx;
  const auto honest = fx.run_once(ProverBehavior::kHonest);
  SoftAttFixture fx2;
  const auto shadow = fx2.run_once(ProverBehavior::kShadowing);
  // Compute times dominate; the ratio approaches the configured 1.30.
  const double ratio = static_cast<double>(shadow.response_time) /
                       static_cast<double>(honest.response_time);
  EXPECT_GT(ratio, 1.15);  // network latency dilutes the 1.30 compute ratio
  EXPECT_LT(ratio, 1.4);
}

TEST(SoftAtt, GenerousDeadlineBreaksTheScheme) {
  // Paper's caveat: software attestation needs strong timing assumptions.
  SoftAttFixture fx;
  (void)fx.device.memory().write(5000, to_bytes("malware!"), 0, sim::Actor::kMalware);
  SoftAttConfig config;
  config.deadline_slack = sim::from_seconds(10);  // sloppy verifier
  const auto outcome = fx.run_once(ProverBehavior::kShadowing, config);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.accepted);  // evasion succeeds
}

TEST(SoftAtt, SmallMemorySmallIterationsStillWork) {
  SoftAttFixture fx;
  SoftAttConfig config;
  config.checksum.iterations = 1000;
  const auto outcome = fx.run_once(ProverBehavior::kHonest, config);
  EXPECT_TRUE(outcome.accepted);
}

TEST(SoftAtt, HonestComputeTimeScalesWithIterations) {
  SoftAttFixture fx;
  SoftAttConfig small;
  small.checksum.iterations = 1000;
  SoftAttConfig large;
  large.checksum.iterations = 10000;
  SoftwareAttestation p_small(fx.device, fx.golden, fx.down, fx.up, small);
  SoftwareAttestation p_large(fx.device, fx.golden, fx.down, fx.up, large);
  EXPECT_NEAR(static_cast<double>(p_large.honest_compute_time()) /
                  static_cast<double>(p_small.honest_compute_time()),
              10.0, 0.01);
}

TEST(SoftAtt, ChecksumRunsAtomicallyOnTheCpu) {
  // The checksum occupies the CPU as one segment: another process's work
  // queued mid-computation runs only afterwards.
  SoftAttFixture fx;
  SoftwareAttestation protocol(fx.device, fx.golden, fx.down, fx.up, {});
  bool done = false;
  protocol.run(ProverBehavior::kHonest, 1, [&](SoftAttOutcome) { done = true; });
  sim::Time observed_busy_until = 0;
  fx.simulator.schedule_at(2 * sim::kMillisecond, [&] {
    if (fx.device.cpu().busy()) observed_busy_until = fx.device.cpu().busy_until();
  });
  fx.simulator.run();
  ASSERT_TRUE(done);
  EXPECT_GT(observed_busy_until, 2 * sim::kMillisecond);
}

}  // namespace
}  // namespace rasc::softatt
