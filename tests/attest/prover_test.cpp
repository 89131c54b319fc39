#include "src/attest/prover.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/attest/verifier.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

struct Fixture {
  sim::Simulator simulator;
  sim::Device device;
  Verifier verifier;

  explicit Fixture(std::size_t blocks = 16, std::size_t block_size = 256)
      : device(simulator,
               sim::DeviceConfig{"dev-p", blocks * block_size, block_size,
                                 to_bytes("prover-test-key")}),
        verifier(crypto::HashKind::kSha256, to_bytes("prover-test-key"),
                 [&] {
                   support::Bytes image = support::random_bytes(11, blocks * block_size);
                   device.memory().load(image);
                   return image;
                 }(),
                 block_size) {}
};

AttestationResult run_one(Fixture& fx, AttestationProcess& mp, std::uint64_t counter = 1) {
  AttestationResult out;
  bool done = false;
  const support::Bytes challenge = fx.verifier.issue_challenge();
  mp.start(MeasurementContext{fx.device.id(), challenge, counter},
           [&](AttestationResult result) {
             out = std::move(result);
             done = true;
           });
  fx.simulator.run();
  EXPECT_TRUE(done);
  return out;
}

TEST(Prover, AtomicMeasurementVerifies) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kAtomic;
  AttestationProcess mp(fx.device, config);
  const auto result = run_one(fx, mp);
  EXPECT_TRUE(fx.verifier.verify(result.report).ok());
  EXPECT_GT(result.t_e, result.t_s);
  EXPECT_EQ(result.t_r, result.t_e);
}

TEST(Prover, InterruptibleMeasurementVerifies) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kInterruptible;
  AttestationProcess mp(fx.device, config);
  const auto result = run_one(fx, mp);
  EXPECT_TRUE(fx.verifier.verify(result.report).ok());
}

TEST(Prover, AtomicAndInterruptibleTakeSimilarTotalTime) {
  Fixture fx_a, fx_i;
  ProverConfig atomic;
  atomic.mode = ExecutionMode::kAtomic;
  ProverConfig inter;
  inter.mode = ExecutionMode::kInterruptible;
  AttestationProcess mp_a(fx_a.device, atomic);
  AttestationProcess mp_i(fx_i.device, inter);
  const auto ra = run_one(fx_a, mp_a);
  const auto ri = run_one(fx_i, mp_i);
  const double da = static_cast<double>(ra.t_e - ra.t_s);
  const double di = static_cast<double>(ri.t_e - ri.t_s);
  EXPECT_NEAR(di / da, 1.0, 0.05);  // same work, different interleaving
}

TEST(Prover, SequentialOrderIsIota) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kInterruptible;
  AttestationProcess mp(fx.device, config);
  const auto result = run_one(fx, mp);
  for (std::size_t i = 0; i < result.order.size(); ++i) EXPECT_EQ(result.order[i], i);
}

TEST(Prover, ShuffledOrderIsPermutationAndVaries) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kInterruptible;
  config.order = TraversalOrder::kShuffledSecret;
  AttestationProcess mp(fx.device, config);
  const auto r1 = run_one(fx, mp, 1);
  const auto r2 = run_one(fx, mp, 2);

  auto is_permutation = [](std::vector<std::size_t> order, std::size_t n) {
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < n; ++i) {
      if (order[i] != i) return false;
    }
    return true;
  };
  EXPECT_TRUE(is_permutation(r1.order, 16));
  EXPECT_TRUE(is_permutation(r2.order, 16));
  EXPECT_NE(r1.order, r2.order);  // fresh permutation per counter
  // Both still verify: the measurement is order-independent.
  EXPECT_TRUE(fx.verifier.verify(r2.report).ok());
}

TEST(Prover, ShuffledOrderDeterministicPerCounter) {
  Fixture fx1, fx2;
  ProverConfig config;
  config.order = TraversalOrder::kShuffledSecret;
  config.mode = ExecutionMode::kInterruptible;
  AttestationProcess mp1(fx1.device, config);
  AttestationProcess mp2(fx2.device, config);
  EXPECT_EQ(run_one(fx1, mp1, 7).order, run_one(fx2, mp2, 7).order);
}

TEST(Prover, VisitTimesIncreaseInterruptible) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kInterruptible;
  AttestationProcess mp(fx.device, config);
  const auto result = run_one(fx, mp);
  sim::Time prev = 0;
  for (std::size_t block : result.order) {
    ASSERT_TRUE(result.visit_times[block].has_value());
    EXPECT_GT(*result.visit_times[block], prev);
    prev = *result.visit_times[block];
  }
}

TEST(Prover, AtomicVisitsShareOneInstant) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kAtomic;
  AttestationProcess mp(fx.device, config);
  const auto result = run_one(fx, mp);
  for (const auto& t : result.visit_times) {
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, result.t_e);
  }
}

TEST(Prover, ObserverSeesMonotonicProgress) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kInterruptible;
  AttestationProcess mp(fx.device, config);
  std::vector<std::size_t> progress;
  mp.set_observer([&](std::size_t done, std::size_t total) {
    progress.push_back(done);
    EXPECT_EQ(total, 16u);
  });
  run_one(fx, mp);
  ASSERT_EQ(progress.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(progress[i], i + 1);
}

TEST(Prover, AtomicObserverFiresOnceAtEnd) {
  Fixture fx;
  ProverConfig config;
  config.mode = ExecutionMode::kAtomic;
  AttestationProcess mp(fx.device, config);
  std::vector<std::size_t> progress;
  mp.set_observer([&](std::size_t done, std::size_t) { progress.push_back(done); });
  run_one(fx, mp);
  EXPECT_EQ(progress, (std::vector<std::size_t>{16}));
}

TEST(Prover, StartWhileBusyThrows) {
  Fixture fx;
  AttestationProcess mp(fx.device, {});
  mp.start(MeasurementContext{"d", {}, 1}, [](AttestationResult) {});
  EXPECT_THROW(mp.start(MeasurementContext{"d", {}, 2}, [](AttestationResult) {}),
               std::logic_error);
  fx.simulator.run();
}

TEST(Prover, DetectsPreexistingInfection) {
  Fixture fx;
  (void)fx.device.memory().write(10, to_bytes("virus"), 0, sim::Actor::kMalware);
  AttestationProcess mp(fx.device, {});
  const auto result = run_one(fx, mp);
  const auto outcome = fx.verifier.verify(result.report);
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
}

TEST(Prover, SignatureAttachedWhenConfigured) {
  Fixture fx;
  ProverConfig config;
  config.signature = crypto::SigKind::kEcdsa256;
  AttestationProcess mp(fx.device, config);
  crypto::HmacDrbg drbg(to_bytes("prover-signer"));
  auto signer = crypto::make_signer(crypto::SigKind::kEcdsa256, drbg);
  mp.set_signer(signer.get());
  const auto result = run_one(fx, mp);
  EXPECT_FALSE(result.report.signature.empty());
  EXPECT_TRUE(report_signature_valid(result.report, *signer));
}

TEST(Prover, SignatureCostExtendsMeasurement) {
  Fixture fx_plain, fx_signed;
  ProverConfig plain;
  ProverConfig with_sig;
  with_sig.signature = crypto::SigKind::kRsa4096;
  AttestationProcess mp_plain(fx_plain.device, plain);
  AttestationProcess mp_sig(fx_signed.device, with_sig);
  const auto r_plain = run_one(fx_plain, mp_plain);
  const auto r_sig = run_one(fx_signed, mp_sig);
  const sim::Duration d_plain = r_plain.t_e - r_plain.t_s;
  const sim::Duration d_sig = r_sig.t_e - r_sig.t_s;
  EXPECT_GE(d_sig, d_plain + fx_signed.device.model().sign_time(crypto::SigKind::kRsa4096));
}

TEST(Prover, ZeroRegionPolicy) {
  Fixture fx;
  ProverConfig config;
  config.zero_region = Coverage{8, 8};  // blocks 8..15 are volatile data
  AttestationProcess mp(fx.device, config);
  // The verifier expects zeros in the data region.
  auto golden = fx.device.memory().snapshot();
  std::fill(golden.begin() + 8 * 256, golden.end(), 0);
  fx.verifier = Verifier(crypto::HashKind::kSha256, to_bytes("prover-test-key"), golden, 256);
  // Scribble into the data region pre-measurement: must not matter.
  (void)fx.device.memory().write(9 * 256, to_bytes("scratch"), 0,
                                 sim::Actor::kApplication);
  const auto result = run_one(fx, mp);
  EXPECT_TRUE(fx.verifier.verify(result.report).ok());
  // Memory was actually zeroed.
  for (auto byte : fx.device.memory().read(8 * 256, 8 * 256)) EXPECT_EQ(byte, 0);
}

TEST(Prover, ReportTimesMatchResult) {
  Fixture fx;
  AttestationProcess mp(fx.device, {});
  const auto result = run_one(fx, mp);
  EXPECT_EQ(result.report.t_start, result.t_s);
  EXPECT_EQ(result.report.t_end, result.t_e);
  EXPECT_TRUE(report_mac_valid(result.report, to_bytes("prover-test-key")));
}

}  // namespace
}  // namespace rasc::attest
