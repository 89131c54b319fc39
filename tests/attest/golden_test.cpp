#include "src/attest/golden.hpp"

#include <gtest/gtest.h>

#include "src/attest/verifier.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

support::Bytes make_image(std::uint64_t seed = 1) {
  return support::random_bytes(seed, kBlocks * kBlockSize);
}

MeasurementContext ctx(std::uint64_t counter = 1) {
  return MeasurementContext{"dev-1", to_bytes("challenge"), counter};
}

TEST(GoldenMeasurement, ExpectedMatchesMeasurementExpected) {
  const auto image = make_image();
  for (const MacKind mac : {MacKind::kHmac, MacKind::kCbcMac}) {
    for (const crypto::HashKind hash :
         {crypto::HashKind::kSha256, crypto::HashKind::kBlake2s}) {
      GoldenMeasurement golden(image, kBlockSize, hash, to_bytes("k"), mac);
      for (std::uint64_t counter = 1; counter <= 3; ++counter) {
        EXPECT_EQ(golden.expected(ctx(counter)),
                  Measurement::expected(image, kBlockSize, hash, to_bytes("k"),
                                        ctx(counter), mac));
      }
    }
  }
}

TEST(GoldenMeasurement, PerBlockDigestsMatchPrimitive) {
  const auto image = make_image();
  GoldenMeasurement golden(image, kBlockSize, crypto::HashKind::kSha256, to_bytes("k"));
  ASSERT_EQ(golden.block_count(), kBlocks);
  EXPECT_EQ(golden.block_size(), kBlockSize);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto primitive = Measurement::block_digest(
        MacKind::kHmac, crypto::HashKind::kSha256, to_bytes("k"),
        support::ByteView(image.data() + b * kBlockSize, kBlockSize));
    EXPECT_EQ(golden.block_digest(b).to_bytes(), primitive);
  }
}

TEST(GoldenMeasurement, RaggedImageThrows) {
  support::Bytes image(kBlockSize + 3);
  EXPECT_THROW(
      GoldenMeasurement(image, kBlockSize, crypto::HashKind::kSha256, to_bytes("k")),
      std::invalid_argument);
  EXPECT_THROW(GoldenMeasurement(image, 0, crypto::HashKind::kSha256, to_bytes("k")),
               std::invalid_argument);
}

TEST(GoldenMeasurement, SharedGoldenVerifierMatchesImageVerifier) {
  const auto image = make_image();
  const support::Bytes key = to_bytes("shared-key");

  Verifier from_image(crypto::HashKind::kSha256, key, image, kBlockSize,
                      /*challenge_seed=*/42);
  auto golden = std::make_shared<const GoldenMeasurement>(
      image, kBlockSize, crypto::HashKind::kSha256, key);
  Verifier from_golden(golden, key, /*challenge_seed=*/42);

  // Same challenge stream, same expected measurement.
  EXPECT_EQ(from_image.issue_challenge(), from_golden.issue_challenge());
  EXPECT_EQ(from_image.golden().expected(ctx(7)), from_golden.golden().expected(ctx(7)));
}

TEST(GoldenMeasurement, VerifierAcceptsGoodAndRejectsTamperedReport) {
  const auto image = make_image();
  const support::Bytes key = to_bytes("shared-key");
  auto golden = std::make_shared<const GoldenMeasurement>(
      image, kBlockSize, crypto::HashKind::kSha256, key);
  Verifier verifier(golden, key);

  Report report;
  report.device_id = "dev-1";
  report.challenge = verifier.issue_challenge();
  report.counter = 1;
  report.hash = crypto::HashKind::kSha256;
  report.measurement = golden->expected(
      MeasurementContext{report.device_id, report.challenge, report.counter});
  authenticate_report(report, key);
  EXPECT_TRUE(verifier.verify(report).ok());

  // A tampered image yields a digest mismatch against the shared golden.
  auto tampered_image = image;
  tampered_image[0] ^= 0xff;
  Report bad = report;
  bad.challenge = verifier.issue_challenge();
  bad.measurement = Measurement::expected(tampered_image, kBlockSize,
                                          crypto::HashKind::kSha256, key,
                                          MeasurementContext{bad.device_id, bad.challenge, 2});
  bad.counter = 2;
  authenticate_report(bad, key);
  const VerifyOutcome outcome = verifier.verify(bad);
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
}

}  // namespace
}  // namespace rasc::attest
