/// Cross-product sweep: every execution mode x traversal order x hash x
/// MAC construction must yield a verifiable measurement on a clean device
/// and a failing one on an infected device.  Guards against interaction
/// bugs between orthogonal configuration axes.

#include <gtest/gtest.h>

#include <tuple>

#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

using MatrixParam =
    std::tuple<ExecutionMode, TraversalOrder, crypto::HashKind, MacKind>;

class ProverMatrix : public ::testing::TestWithParam<MatrixParam> {};

/// Test-name suffix: the axis names joined, alphanumerics only.
std::string cell_name(std::string name) {
  std::erase_if(name, [](char ch) { return !std::isalnum(static_cast<unsigned char>(ch)); });
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ProverMatrix,
    ::testing::Combine(
        ::testing::Values(ExecutionMode::kAtomic, ExecutionMode::kInterruptible),
        ::testing::Values(TraversalOrder::kSequential, TraversalOrder::kShuffledSecret),
        ::testing::ValuesIn(crypto::kAllHashKinds),
        ::testing::Values(MacKind::kHmac, MacKind::kCbcMac)),
    [](const auto& info) {
      // NOTE: no structured bindings here — commas in brackets would be
      // split by the INSTANTIATE_TEST_SUITE_P macro.
      return cell_name(execution_mode_name(std::get<0>(info.param)) +
                       traversal_order_name(std::get<1>(info.param)) +
                       crypto::hash_name(std::get<2>(info.param)) +
                       mac_kind_name(std::get<3>(info.param)));
    });

struct MatrixFixture {
  sim::Simulator simulator;
  sim::Device device;
  support::Bytes image;

  MatrixFixture()
      : device(simulator,
               sim::DeviceConfig{"dev-mx", 12 * 256, 256, to_bytes("matrix-key")}) {
    image = support::random_bytes(55, device.memory().size());
    device.memory().load(image);
  }
};

VerifyOutcome run_round(MatrixFixture& fx, const MatrixParam& param, bool infect) {
  const auto& [mode, order, hash, mac] = param;
  Verifier verifier(hash, to_bytes("matrix-key"), fx.image, 256, 0xc0ffee, mac);
  ProverConfig config;
  config.mode = mode;
  config.order = order;
  config.hash = hash;
  config.mac = mac;
  AttestationProcess mp(fx.device, config);
  if (infect) {
    (void)fx.device.memory().write(7 * 256 + 3, to_bytes("!"), 0, sim::Actor::kMalware);
  }
  VerifyOutcome outcome;
  bool done = false;
  const auto challenge = verifier.issue_challenge();
  mp.start(MeasurementContext{fx.device.id(), challenge, 1},
           [&](AttestationResult result) {
             outcome = verifier.verify(result.report);
             done = true;
           });
  fx.simulator.run();
  EXPECT_TRUE(done);
  return outcome;
}

TEST_P(ProverMatrix, CleanDeviceVerifies) {
  MatrixFixture fx;
  const auto outcome = run_round(fx, GetParam(), /*infect=*/false);
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_TRUE(outcome.digest_ok);
  EXPECT_TRUE(outcome.ok());
}

TEST_P(ProverMatrix, SingleByteInfectionDetected) {
  MatrixFixture fx;
  const auto outcome = run_round(fx, GetParam(), /*infect=*/true);
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
}

/// Traversal order is compared inside each cell, so this sweep runs over
/// mode x hash x MAC only.
using OrderParam = std::tuple<ExecutionMode, crypto::HashKind, MacKind>;

class ProverOrderMatrix : public ::testing::TestWithParam<OrderParam> {};

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ProverOrderMatrix,
    ::testing::Combine(
        ::testing::Values(ExecutionMode::kAtomic, ExecutionMode::kInterruptible),
        ::testing::ValuesIn(crypto::kAllHashKinds),
        ::testing::Values(MacKind::kHmac, MacKind::kCbcMac)),
    [](const auto& info) {
      return cell_name(execution_mode_name(std::get<0>(info.param)) +
                       crypto::hash_name(std::get<1>(info.param)) +
                       mac_kind_name(std::get<2>(info.param)));
    });

TEST_P(ProverOrderMatrix, MeasurementDurationIndependentOfOrder) {
  // Shuffling changes which block is read when, not how long MP takes.
  const auto& [mode, hash, mac] = GetParam();
  MatrixFixture fx_seq, fx_shuf;
  auto run_duration = [&](MatrixFixture& fx, TraversalOrder o) {
    Verifier verifier(hash, to_bytes("matrix-key"), fx.image, 256, 0xc0ffee, mac);
    ProverConfig config;
    config.mode = mode;
    config.order = o;
    config.hash = hash;
    config.mac = mac;
    AttestationProcess mp(fx.device, config);
    sim::Duration duration = 0;
    mp.start(MeasurementContext{fx.device.id(), verifier.issue_challenge(), 1},
             [&](AttestationResult result) { duration = result.t_e - result.t_s; });
    fx.simulator.run();
    return duration;
  };
  EXPECT_EQ(run_duration(fx_seq, TraversalOrder::kSequential),
            run_duration(fx_shuf, TraversalOrder::kShuffledSecret));
}

}  // namespace
}  // namespace rasc::attest
