#include "src/selfmeasure/seed.hpp"

#include <gtest/gtest.h>

#include "src/malware/transient.hpp"
#include "src/support/rng.hpp"

namespace rasc::selfm {
namespace {

using support::to_bytes;

TEST(SeedSchedule, DeterministicSharedComputation) {
  const auto seed = to_bytes("shared");
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(seed_attestation_time(seed, k, 30 * sim::kSecond),
              seed_attestation_time(seed, k, 30 * sim::kSecond));
  }
}

TEST(SeedSchedule, OnePerEpochWithinBounds) {
  const auto seed = to_bytes("shared");
  const sim::Duration epoch = 30 * sim::kSecond;
  for (std::uint64_t k = 0; k < 50; ++k) {
    const sim::Time t = seed_attestation_time(seed, k, epoch);
    EXPECT_GE(t, k * epoch);
    EXPECT_LT(t, (k + 1) * epoch);
  }
}

TEST(SeedSchedule, UnpredictableAcrossSeedsAndEpochs) {
  const sim::Duration epoch = 30 * sim::kSecond;
  // Different seeds give different offsets (overwhelmingly).
  int same = 0;
  for (std::uint64_t k = 0; k < 30; ++k) {
    const sim::Duration off_a =
        seed_attestation_time(to_bytes("seed-a"), k, epoch) - k * epoch;
    const sim::Duration off_b =
        seed_attestation_time(to_bytes("seed-b"), k, epoch) - k * epoch;
    same += (off_a == off_b);
  }
  EXPECT_LE(same, 1);
  // Offsets vary across epochs too (not a fixed phase).
  std::set<sim::Duration> offsets;
  for (std::uint64_t k = 0; k < 30; ++k) {
    offsets.insert(seed_attestation_time(to_bytes("seed-a"), k, epoch) - k * epoch);
  }
  EXPECT_GT(offsets.size(), 25u);
}

struct SeedFixture {
  sim::Simulator simulator;
  sim::Device device;
  attest::Verifier verifier;
  sim::Link to_vrf;
  SeedConfig config;

  explicit SeedFixture(double drop = 0.0, double duplicate = 0.0)
      : device(simulator,
               sim::DeviceConfig{"dev-s", 16 * 256, 256, to_bytes("seed-key")}),
        verifier(crypto::HashKind::kSha256, to_bytes("seed-key"),
                 [&] {
                   support::Bytes image = support::random_bytes(31, 16 * 256);
                   device.memory().load(image);
                   return image;
                 }(),
                 256),
        to_vrf(simulator,
               [&] {
                 sim::LinkConfig lc;
                 lc.drop_probability = drop;
                 lc.duplicate_probability = duplicate;
                 lc.seed = 1234;
                 return lc;
               }()) {
    config.shared_seed = to_bytes("shared-seed");
    config.epoch = 10 * sim::kSecond;
    config.response_window = sim::kSecond;
  }
};

TEST(Seed, BenignDeviceAllEpochsVerify) {
  SeedFixture fx;
  SeedProver prover(fx.device, fx.config, fx.to_vrf);
  SeedVerifier seed_verifier(fx.simulator, fx.verifier, fx.config);
  prover.set_delivery_handler(
      [&](const attest::Report& r) { seed_verifier.on_report(r); });
  prover.start(sim::from_seconds(60));
  seed_verifier.start(sim::from_seconds(60));
  fx.simulator.run();

  EXPECT_EQ(prover.attestations_sent(), 6u);
  EXPECT_EQ(seed_verifier.outcomes().size(), 6u);
  EXPECT_EQ(seed_verifier.false_alarms(), 0u);
  EXPECT_EQ(seed_verifier.detections(), 0u);
  for (const auto& o : seed_verifier.outcomes()) {
    EXPECT_TRUE(o.received);
    EXPECT_TRUE(o.verified_ok);
  }
}

TEST(Seed, ResidentInfectionIsDetected) {
  SeedFixture fx;
  (void)fx.device.memory().write(3 * 256, to_bytes("persistent-malware"), 0,
                                 sim::Actor::kMalware);
  SeedProver prover(fx.device, fx.config, fx.to_vrf);
  SeedVerifier seed_verifier(fx.simulator, fx.verifier, fx.config);
  prover.set_delivery_handler(
      [&](const attest::Report& r) { seed_verifier.on_report(r); });
  prover.start(sim::from_seconds(30));
  seed_verifier.start(sim::from_seconds(30));
  fx.simulator.run();
  EXPECT_GT(seed_verifier.detections(), 0u);
}

TEST(Seed, DroppedReportsBecomeFalseAlarms) {
  SeedFixture fx(/*drop=*/1.0);
  SeedProver prover(fx.device, fx.config, fx.to_vrf);
  SeedVerifier seed_verifier(fx.simulator, fx.verifier, fx.config);
  prover.set_delivery_handler(
      [&](const attest::Report& r) { seed_verifier.on_report(r); });
  prover.start(sim::from_seconds(60));
  seed_verifier.start(sim::from_seconds(60));
  fx.simulator.run();
  // Every epoch is missing despite the device being healthy: the
  // unidirectional protocol cannot distinguish loss from suppression.
  EXPECT_EQ(seed_verifier.false_alarms(), 6u);
}

TEST(Seed, DuplicatedReportsAreRejectedAsReplays) {
  // Every report arrives twice; the epoch binding dedups the second copy
  // without re-judging it, and the accounting makes the rejects visible.
  SeedFixture fx(/*drop=*/0.0, /*duplicate=*/1.0);
  SeedProver prover(fx.device, fx.config, fx.to_vrf);
  SeedVerifier seed_verifier(fx.simulator, fx.verifier, fx.config);
  prover.set_delivery_handler(
      [&](const attest::Report& r) { seed_verifier.on_report(r); });
  prover.start(sim::from_seconds(60));
  seed_verifier.start(sim::from_seconds(60));
  fx.simulator.run();

  EXPECT_EQ(seed_verifier.replays_rejected(), 6u);
  EXPECT_EQ(seed_verifier.false_alarms(), 0u);
  EXPECT_EQ(seed_verifier.detections(), 0u);
  // Six epochs, each with exactly one report received and judged.
  ASSERT_EQ(seed_verifier.outcomes().size(), 6u);
  for (const auto& o : seed_verifier.outcomes()) {
    EXPECT_TRUE(o.received);
    EXPECT_TRUE(o.verified_ok);
  }
}

TEST(Seed, FalseAlarmRateTracksLossRate) {
  SeedFixture reliable(0.0), lossy(0.5);
  for (SeedFixture* fx : {&reliable, &lossy}) {
    SeedProver prover(fx->device, fx->config, fx->to_vrf);
    SeedVerifier seed_verifier(fx->simulator, fx->verifier, fx->config);
    prover.set_delivery_handler(
        [&](const attest::Report& r) { seed_verifier.on_report(r); });
    prover.start(sim::from_seconds(200));
    seed_verifier.start(sim::from_seconds(200));
    fx->simulator.run();
    if (fx == &reliable) {
      EXPECT_EQ(seed_verifier.false_alarms(), 0u);
    } else {
      EXPECT_GT(seed_verifier.false_alarms(), 4u);  // ~half of 20 epochs
      EXPECT_LT(seed_verifier.false_alarms(), 16u);
    }
  }
}

TEST(Seed, SecretScheduleCatchesScheduleAwareTransient) {
  // The paper's key argument for secret attestation times: transient
  // malware that can dodge a *predictable* schedule stays resident under
  // an unpredictable one and gets caught.
  SeedFixture fx;
  SeedProver prover(fx.device, fx.config, fx.to_vrf);
  SeedVerifier seed_verifier(fx.simulator, fx.verifier, fx.config);
  prover.set_delivery_handler(
      [&](const attest::Report& r) { seed_verifier.on_report(r); });

  // Malware has no predictor for SeED's secret schedule.
  malware::ScheduleAwareTransient malware(
      fx.device, 5, [](sim::Time) { return std::nullopt; });
  malware.arm(sim::from_seconds(60));

  prover.start(sim::from_seconds(60));
  seed_verifier.start(sim::from_seconds(60));
  fx.simulator.run();
  EXPECT_GT(seed_verifier.detections(), 0u);
}

TEST(Seed, PredictableScheduleIsDodged) {
  // Control experiment: identical malware but with a *known* periodic
  // schedule (plain self-measurement without SeED's secret timing).
  SeedFixture fx;
  // Run periodic measurements at exactly k*epoch via ERASMUS-like timing:
  // here we reuse SeedProver but give the malware a perfect predictor of
  // the pseudorandom schedule to model "schedule leaked".
  SeedProver prover(fx.device, fx.config, fx.to_vrf);
  SeedVerifier seed_verifier(fx.simulator, fx.verifier, fx.config);
  prover.set_delivery_handler(
      [&](const attest::Report& r) { seed_verifier.on_report(r); });

  const auto seed = fx.config.shared_seed;
  const sim::Duration epoch = fx.config.epoch;
  malware::ScheduleAwareTransient malware(
      fx.device, 5,
      [seed, epoch](sim::Time now) -> std::optional<sim::Time> {
        for (std::uint64_t k = 0;; ++k) {
          const sim::Time t = seed_attestation_time(seed, k, epoch);
          if (t > now) return t;
        }
      },
      /*guard=*/2 * sim::kSecond);
  malware.arm(sim::from_seconds(60));

  prover.start(sim::from_seconds(60));
  seed_verifier.start(sim::from_seconds(60));
  fx.simulator.run();
  EXPECT_EQ(seed_verifier.detections(), 0u);
  EXPECT_GT(malware.residency_fraction(), 0.4);
}

}  // namespace
}  // namespace rasc::selfm
