#include "src/attest/mac_engine.hpp"

#include <gtest/gtest.h>

#include "src/attest/measurement.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::Bytes;
using support::to_bytes;

TEST(MacEngine, NamesAreStable) {
  EXPECT_EQ(mac_kind_name(MacKind::kHmac), "HMAC");
  EXPECT_EQ(mac_kind_name(MacKind::kCbcMac), "AES-CBC-MAC");
}

TEST(MacEngine, HmacMatchesDirectHmac) {
  const Bytes key = to_bytes("engine-key");
  const Bytes msg = to_bytes("engine message");
  EXPECT_EQ(MacEngine::compute(MacKind::kHmac, crypto::HashKind::kSha256, key, msg),
            crypto::Hmac::compute(crypto::HashKind::kSha256, key, msg));
}

TEST(MacEngine, CbcMacMatchesDirectCbcMacForAesKeys) {
  const Bytes key(16, 0x42);
  const Bytes msg = to_bytes("engine message");
  EXPECT_EQ(MacEngine::compute(MacKind::kCbcMac, crypto::HashKind::kSha256, key, msg),
            crypto::CbcMac::compute(key, msg));
}

TEST(MacEngine, CbcMacDerivesKeyForOddSizes) {
  // A 19-byte provisioning secret still yields a working CBC-MAC engine.
  const Bytes key = to_bytes("nineteen-byte-key!!");
  const Bytes msg = to_bytes("m");
  const auto tag = MacEngine::compute(MacKind::kCbcMac, crypto::HashKind::kSha256, key, msg);
  EXPECT_EQ(tag.size(), crypto::CbcMac::kTagSize);
  EXPECT_EQ(tag, MacEngine::compute(MacKind::kCbcMac, crypto::HashKind::kSha256, key, msg));
}

TEST(MacEngine, KindsProduceDifferentTags) {
  const Bytes key(16, 0x13);
  const Bytes msg = to_bytes("same message");
  EXPECT_NE(MacEngine::compute(MacKind::kHmac, crypto::HashKind::kSha256, key, msg),
            MacEngine::compute(MacKind::kCbcMac, crypto::HashKind::kSha256, key, msg));
}

TEST(MacEngine, StreamingEqualsOneShot) {
  for (MacKind kind : {MacKind::kHmac, MacKind::kCbcMac}) {
    MacEngine engine(kind, crypto::HashKind::kSha256, Bytes(16, 0x77));
    engine.update(to_bytes("part-a"));
    engine.update(to_bytes("part-b"));
    EXPECT_EQ(engine.finalize(),
              MacEngine::compute(kind, crypto::HashKind::kSha256, Bytes(16, 0x77),
                                 to_bytes("part-apart-b")));
  }
}

TEST(MacEngine, TagSizes) {
  EXPECT_EQ(MacEngine(MacKind::kHmac, crypto::HashKind::kSha512, to_bytes("k")).tag_size(),
            64u);
  EXPECT_EQ(MacEngine(MacKind::kCbcMac, crypto::HashKind::kSha256, Bytes(16, 0)).tag_size(),
            16u);
}

// ---- encryption-based F end-to-end -----------------------------------------

struct CbcFixture {
  sim::Simulator simulator;
  sim::Device device;
  Verifier verifier;

  CbcFixture()
      : device(simulator,
               sim::DeviceConfig{"dev-cbc", 8 * 256, 256, support::Bytes(16, 0x2a)}),
        verifier(crypto::HashKind::kSha256, support::Bytes(16, 0x2a),
                 [&] {
                   support::Bytes image = support::random_bytes(3, 8 * 256);
                   device.memory().load(image);
                   return image;
                 }(),
                 256, 0xc0ffee, MacKind::kCbcMac) {}
};

TEST(CbcMeasurement, ProverAndVerifierAgree) {
  CbcFixture fx;
  ProverConfig config;
  config.mac = MacKind::kCbcMac;
  AttestationProcess mp(fx.device, config);
  bool ok = false;
  const auto challenge = fx.verifier.issue_challenge();
  mp.start(MeasurementContext{fx.device.id(), challenge, 1},
           [&](AttestationResult result) {
             ok = fx.verifier.verify(result.report).ok();
           });
  fx.simulator.run();
  EXPECT_TRUE(ok);
}

TEST(CbcMeasurement, DetectsInfection) {
  CbcFixture fx;
  (void)fx.device.memory().write(300, to_bytes("bad"), 0, sim::Actor::kMalware);
  ProverConfig config;
  config.mac = MacKind::kCbcMac;
  AttestationProcess mp(fx.device, config);
  VerifyOutcome outcome;
  const auto challenge = fx.verifier.issue_challenge();
  mp.start(MeasurementContext{fx.device.id(), challenge, 1},
           [&](AttestationResult result) { outcome = fx.verifier.verify(result.report); });
  fx.simulator.run();
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
}

TEST(CbcMeasurement, MacKindMismatchFailsVerification) {
  CbcFixture fx;  // verifier expects CBC-MAC
  ProverConfig config;
  config.mac = MacKind::kHmac;  // prover measures with HMAC
  AttestationProcess mp(fx.device, config);
  VerifyOutcome outcome;
  const auto challenge = fx.verifier.issue_challenge();
  mp.start(MeasurementContext{fx.device.id(), challenge, 1},
           [&](AttestationResult result) { outcome = fx.verifier.verify(result.report); });
  fx.simulator.run();
  EXPECT_FALSE(outcome.digest_ok);
}

TEST(CbcMeasurement, BlockDigestIsKeyed) {
  const Bytes block(64, 0x5a);
  const auto d1 = Measurement::block_digest(MacKind::kCbcMac, crypto::HashKind::kSha256,
                                            Bytes(16, 1), block);
  const auto d2 = Measurement::block_digest(MacKind::kCbcMac, crypto::HashKind::kSha256,
                                            Bytes(16, 2), block);
  EXPECT_NE(d1, d2);
  // Hash-based digests are unkeyed by design (verifier caches them).
  EXPECT_EQ(Measurement::block_digest(MacKind::kHmac, crypto::HashKind::kSha256,
                                      Bytes(16, 1), block),
            crypto::hash_oneshot(crypto::HashKind::kSha256, block));
}

TEST(CbcMeasurement, ModelChargesAesCosts) {
  sim::CpuModel model;
  // Software AES is slower per byte than SHA-256 on the modeled core.
  EXPECT_GT(model.cbcmac_time(1 << 20), model.hash_time(crypto::HashKind::kSha256, 1 << 20));
}

}  // namespace
}  // namespace rasc::attest
