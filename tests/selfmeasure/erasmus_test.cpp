#include "src/selfmeasure/erasmus.hpp"

#include <gtest/gtest.h>

#include "src/apps/writer_task.hpp"
#include "src/malware/transient.hpp"
#include "src/support/rng.hpp"

namespace rasc::selfm {
namespace {

using support::to_bytes;

struct ErasmusFixture {
  sim::Simulator simulator;
  sim::Device device;
  attest::Verifier verifier;
  sim::Link to_prv;
  sim::Link to_vrf;

  ErasmusFixture()
      : device(simulator, sim::DeviceConfig{"dev-e", 16 * 256, 256,
                                            to_bytes("erasmus-key")}),
        verifier(crypto::HashKind::kSha256, to_bytes("erasmus-key"),
                 [&] {
                   support::Bytes image = support::random_bytes(21, 16 * 256);
                   device.memory().load(image);
                   return image;
                 }(),
                 256),
        to_prv(simulator, {}),
        to_vrf(simulator, {}) {}
};

TEST(Erasmus, MeasuresOnSchedule) {
  ErasmusFixture fx;
  ErasmusConfig config;
  config.period = sim::kSecond;
  ErasmusProver prover(fx.device, config);
  prover.start(sim::from_seconds(10.5));
  fx.simulator.run();
  EXPECT_EQ(prover.measurements_taken(), 11u);  // t = 0..10 s inclusive
  ASSERT_EQ(prover.measurement_times().size(), 11u);
  // Roughly one second apart.
  for (std::size_t i = 1; i < prover.measurement_times().size(); ++i) {
    const sim::Duration gap =
        prover.measurement_times()[i] - prover.measurement_times()[i - 1];
    EXPECT_NEAR(sim::to_seconds(gap), 1.0, 0.1);
  }
}

TEST(Erasmus, HistoryIsBoundedRing) {
  ErasmusFixture fx;
  ErasmusConfig config;
  config.period = 100 * sim::kMillisecond;
  config.history_capacity = 5;
  ErasmusProver prover(fx.device, config);
  prover.start(sim::from_seconds(2));
  fx.simulator.run();
  EXPECT_EQ(prover.history().size(), 5u);
  // Oldest entries were dropped: counters are the 5 most recent.
  EXPECT_EQ(prover.history().back().counter, prover.measurements_taken());
  EXPECT_EQ(prover.history().front().counter, prover.measurements_taken() - 4);
}

TEST(Erasmus, StoredReportsVerify) {
  ErasmusFixture fx;
  ErasmusConfig config;
  config.period = sim::kSecond;
  ErasmusProver prover(fx.device, config);
  prover.start(sim::from_seconds(3.5));
  fx.simulator.run();
  for (const auto& report : prover.history()) {
    EXPECT_TRUE(fx.verifier.verify(report, /*expect_challenge=*/false).ok());
  }
}

TEST(Erasmus, CollectorSeparatesTmFromTc) {
  // T_M = 1 s, T_C = 5 s: each collection sees ~5 new reports.
  ErasmusFixture fx;
  ErasmusConfig config;
  config.period = sim::kSecond;
  ErasmusProver prover(fx.device, config);
  Collector collector(fx.verifier, prover, fx.to_prv, fx.to_vrf, 5 * sim::kSecond);
  prover.start(sim::from_seconds(20));
  collector.start(sim::from_seconds(20));
  fx.simulator.run();
  ASSERT_GE(collector.records().size(), 3u);
  for (std::size_t i = 1; i < collector.records().size(); ++i) {
    EXPECT_NEAR(collector.records()[i].reports_seen, 5, 2);
    EXPECT_FALSE(collector.records()[i].detected);
  }
}

TEST(Erasmus, DetectsTransientThatOverlapsAMeasurement) {
  ErasmusFixture fx;
  ErasmusConfig config;
  config.period = sim::kSecond;
  ErasmusProver prover(fx.device, config);
  Collector collector(fx.verifier, prover, fx.to_prv, fx.to_vrf, 5 * sim::kSecond);

  // Infection spans several measurement instants.
  malware::TransientConfig mc;
  mc.block = 7;
  mc.infect_at = sim::from_seconds(2.4);
  mc.dwell = 3 * sim::kSecond;
  malware::TransientMalware malware(fx.device, mc);
  malware.arm();

  prover.start(sim::from_seconds(15));
  collector.start(sim::from_seconds(16));
  fx.simulator.run();

  EXPECT_FALSE(collector.detection_times().empty());
  bool any_detected = false;
  for (const auto& record : collector.records()) any_detected |= record.detected;
  EXPECT_TRUE(any_detected);
  EXPECT_FALSE(malware.resident());  // it left, but the history convicts it
}

TEST(Erasmus, MissesTransientBetweenMeasurements) {
  // Infection 1 of Figure 5: fits entirely between two self-measurements.
  ErasmusFixture fx;
  ErasmusConfig config;
  config.period = 10 * sim::kSecond;
  ErasmusProver prover(fx.device, config);
  Collector collector(fx.verifier, prover, fx.to_prv, fx.to_vrf, 20 * sim::kSecond);

  malware::TransientConfig mc;
  mc.block = 7;
  mc.infect_at = sim::from_seconds(11);  // right after the t=10 s measurement
  mc.dwell = 5 * sim::kSecond;           // gone before t=20 s
  malware::TransientMalware malware(fx.device, mc);
  malware.arm();

  prover.start(sim::from_seconds(60));
  collector.start(sim::from_seconds(70));
  fx.simulator.run();

  for (const auto& record : collector.records()) EXPECT_FALSE(record.detected);
}

TEST(Erasmus, OnDemandCouplingProducesFreshVerifiedReport) {
  ErasmusFixture fx;
  ErasmusConfig config;
  config.period = sim::kSecond;
  ErasmusProver prover(fx.device, config);
  prover.start(sim::from_seconds(3));

  bool verified = false;
  fx.simulator.schedule_at(sim::from_seconds(1.5), [&] {
    const support::Bytes challenge = fx.verifier.issue_challenge();
    prover.measure_on_demand(challenge, [&](attest::Report report) {
      verified = fx.verifier.verify(report, /*expect_challenge=*/true).ok();
    });
  });
  fx.simulator.run();
  EXPECT_TRUE(verified);
}

TEST(Erasmus, ContextAwareDefersWhileAppBusy) {
  ErasmusFixture fx;
  // Saturate the CPU with a long-running app segment around each tick.
  apps::WriterConfig wc;
  wc.period = 5 * sim::kMillisecond;
  wc.write_cost = 4 * sim::kMillisecond;  // nearly saturating
  apps::WriterTask writer(fx.device, wc);
  writer.arm(sim::from_seconds(2));

  ErasmusConfig config;
  // An off-beat period so ticks land inside writer segments, not exactly
  // on their boundaries.
  config.period = 501 * sim::kMillisecond;
  config.context_aware = true;
  ErasmusProver prover(fx.device, config);
  prover.start(sim::from_seconds(2));
  fx.simulator.run();
  EXPECT_GT(prover.deferrals(), 0u);
  EXPECT_GT(prover.measurements_taken(), 0u);
}

}  // namespace
}  // namespace rasc::selfm
