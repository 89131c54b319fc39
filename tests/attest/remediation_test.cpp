#include "src/attest/remediation.hpp"

#include <gtest/gtest.h>

#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

struct RemediationFixture {
  sim::Simulator simulator;
  sim::Device device;
  support::Bytes golden;
  Verifier verifier;
  AttestationProcess mp;
  sim::Link up;
  sim::Link down;
  RemediationService service;

  RemediationFixture()
      : device(simulator,
               sim::DeviceConfig{"dev-rem", 16 * 512, 512, to_bytes("rem-key")}),
        golden([&] {
          support::Bytes image = support::random_bytes(8, 16 * 512);
          device.memory().load(image);
          return image;
        }()),
        verifier(crypto::HashKind::kSha256, to_bytes("rem-key"), golden, 512),
        mp(device, {}),
        up(simulator, {}),
        down(simulator, {}),
        service(device, verifier, mp, up, down, golden) {}
};

TEST(Remediation, CleanDeviceNeedsNoCure) {
  RemediationFixture fx;
  RemediationOutcome outcome;
  bool done = false;
  fx.service.run(1, [&](RemediationOutcome o) {
    outcome = o;
    done = true;
  });
  fx.simulator.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.attempted);
  EXPECT_TRUE(outcome.first_verdict.ok());
  EXPECT_TRUE(outcome.reattested_ok);
}

TEST(Remediation, InfectedDeviceIsRolledBackAndReattests) {
  RemediationFixture fx;
  (void)fx.device.memory().write(1000, to_bytes("rootkit"), 0, sim::Actor::kMalware);
  RemediationOutcome outcome;
  bool done = false;
  fx.service.run(1, [&](RemediationOutcome o) {
    outcome = o;
    done = true;
  });
  fx.simulator.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.attempted);
  EXPECT_FALSE(outcome.first_verdict.ok());
  EXPECT_TRUE(outcome.final_verdict.ok());
  EXPECT_TRUE(outcome.reattested_ok);
  // Memory really is clean again.
  EXPECT_EQ(fx.device.memory().snapshot(), fx.golden);
}

TEST(Remediation, RollbackClearsStaleLocks) {
  RemediationFixture fx;
  (void)fx.device.memory().write(1000, to_bytes("rootkit"), 0, sim::Actor::kMalware);
  fx.device.memory().lock_block(1);  // stale lock from an aborted measurement
  bool done = false;
  RemediationOutcome outcome;
  fx.service.run(5, [&](RemediationOutcome o) {
    outcome = o;
    done = true;
  });
  fx.simulator.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.reattested_ok);
  EXPECT_EQ(fx.device.memory().locked_block_count(), 0u);
}

TEST(Remediation, UpdateOccupiesTheCpu) {
  RemediationFixture fx;
  (void)fx.device.memory().write(1000, to_bytes("rootkit"), 0, sim::Actor::kMalware);
  bool done = false;
  fx.service.run(1, [&](RemediationOutcome o) { done = o.reattested_ok; });
  fx.simulator.run();
  ASSERT_TRUE(done);
  EXPECT_GT(fx.device.cpu().consumed("rom/update"), 0u);
}

TEST(Remediation, ReinfectionDetectedOnNextCycle) {
  RemediationFixture fx;
  (void)fx.device.memory().write(1000, to_bytes("rootkit"), 0, sim::Actor::kMalware);
  int cycles = 0;
  bool final_ok = false;
  fx.service.run(1, [&](RemediationOutcome first) {
    ++cycles;
    EXPECT_TRUE(first.reattested_ok);
    // Malware returns after the cure...
    (void)fx.device.memory().write(2000, to_bytes("again!"), fx.simulator.now(),
                                   sim::Actor::kMalware);
    fx.service.run(10, [&](RemediationOutcome second) {
      ++cycles;
      EXPECT_TRUE(second.attempted);
      final_ok = second.reattested_ok;
    });
  });
  fx.simulator.run();
  EXPECT_EQ(cycles, 2);
  EXPECT_TRUE(final_ok);
}

}  // namespace
}  // namespace rasc::attest
