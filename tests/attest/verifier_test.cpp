#include "src/attest/verifier.hpp"

#include <gtest/gtest.h>

#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::Bytes;
using support::to_bytes;

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

/// Produce a report as an honest prover with `image` in memory would.
Report honest_report(const Bytes& image, const Bytes& key, Bytes challenge,
                     std::uint64_t counter) {
  Report r;
  r.device_id = "dev-1";
  r.challenge = std::move(challenge);
  r.counter = counter;
  r.t_start = 10;
  r.t_end = 20;
  r.hash = crypto::HashKind::kSha256;
  MeasurementContext context{r.device_id, r.challenge, r.counter};
  r.measurement =
      Measurement::expected(image, kBlockSize, crypto::HashKind::kSha256, key, context);
  authenticate_report(r, key);
  return r;
}

class VerifierTest : public ::testing::Test {
 protected:
  Bytes key_ = to_bytes("shared-key");
  Bytes image_ = support::random_bytes(3, kBlocks * kBlockSize);
  Verifier verifier_{crypto::HashKind::kSha256, key_, image_, kBlockSize};
};

TEST_F(VerifierTest, AcceptsHonestReport) {
  const Bytes challenge = verifier_.issue_challenge();
  const auto outcome = verifier_.verify(honest_report(image_, key_, challenge, 1));
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_TRUE(outcome.digest_ok);
  EXPECT_TRUE(outcome.challenge_ok);
  EXPECT_TRUE(outcome.ok());
}

TEST_F(VerifierTest, RejectsInfectedMemory) {
  const Bytes challenge = verifier_.issue_challenge();
  Bytes infected = image_;
  infected[100] ^= 0xff;
  const auto outcome = verifier_.verify(honest_report(infected, key_, challenge, 1));
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
  EXPECT_FALSE(outcome.ok());
}

TEST_F(VerifierTest, RejectsWrongKeyProver) {
  const Bytes challenge = verifier_.issue_challenge();
  const auto outcome =
      verifier_.verify(honest_report(image_, to_bytes("stolen?"), challenge, 1));
  EXPECT_FALSE(outcome.mac_ok);
  EXPECT_FALSE(outcome.ok());
}

TEST_F(VerifierTest, RejectsStaleChallenge) {
  const Bytes old_challenge = verifier_.issue_challenge();
  (void)verifier_.issue_challenge();  // supersedes the old one
  const auto outcome = verifier_.verify(honest_report(image_, key_, old_challenge, 1));
  EXPECT_FALSE(outcome.challenge_ok);
  EXPECT_FALSE(outcome.ok());
}

TEST_F(VerifierTest, RejectsReportWithoutOutstandingChallenge) {
  const auto outcome = verifier_.verify(honest_report(image_, key_, to_bytes("made-up"), 1));
  EXPECT_FALSE(outcome.challenge_ok);
}

TEST_F(VerifierTest, ChallengesAreFreshEachTime) {
  EXPECT_NE(verifier_.issue_challenge(), verifier_.issue_challenge());
}

TEST_F(VerifierTest, ChallengeConsumedAfterSuccessfulVerify) {
  const Bytes challenge = verifier_.issue_challenge();
  const Report report = honest_report(image_, key_, challenge, 1);
  EXPECT_TRUE(verifier_.verify(report).ok());
  // Replaying the same (previously valid) report fails: no outstanding
  // challenge anymore.
  EXPECT_FALSE(verifier_.verify(report).ok());
}

TEST_F(VerifierTest, SelfMeasurementModeChecksCounterNotChallenge) {
  auto r1 = honest_report(image_, key_, {}, 1);
  auto r2 = honest_report(image_, key_, {}, 2);
  EXPECT_TRUE(verifier_.verify(r1, /*expect_challenge=*/false).ok());
  EXPECT_TRUE(verifier_.verify(r2, /*expect_challenge=*/false).ok());
  // Replay of counter 1 now fails.
  const auto replayed = verifier_.verify(r1, /*expect_challenge=*/false);
  EXPECT_FALSE(replayed.counter_ok);
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(verifier_.last_counter(), 2u);
}

TEST_F(VerifierTest, ResetCounterAllowsReuse) {
  auto r1 = honest_report(image_, key_, {}, 5);
  EXPECT_TRUE(verifier_.verify(r1, false).ok());
  verifier_.reset_counter();
  EXPECT_TRUE(verifier_.verify(r1, false).ok());
}

TEST_F(VerifierTest, GoldenImageUpdate) {
  Bytes updated = image_;
  updated[0] ^= 1;
  verifier_.set_golden_image(updated);
  const Bytes challenge = verifier_.issue_challenge();
  EXPECT_TRUE(verifier_.verify(honest_report(updated, key_, challenge, 1)).ok());
}

TEST_F(VerifierTest, GoldenImageMustBeWholeBlocks) {
  EXPECT_THROW(verifier_.set_golden_image(Bytes(100)), std::invalid_argument);
  EXPECT_THROW(Verifier(crypto::HashKind::kSha256, key_, Bytes(100), kBlockSize),
               std::invalid_argument);
}

TEST_F(VerifierTest, DeterministicChallengesPerSeed) {
  Verifier a(crypto::HashKind::kSha256, key_, image_, kBlockSize, 99);
  Verifier b(crypto::HashKind::kSha256, key_, image_, kBlockSize, 99);
  EXPECT_EQ(a.issue_challenge(), b.issue_challenge());
}

// The wake path: a verifier built from a saved session continues exactly
// like the original, and like a seeded verifier that restored the session.
TEST_F(VerifierTest, ResumedFromSessionStateMatchesOriginalAndRestore) {
  const auto golden = std::make_shared<const GoldenMeasurement>(
      image_, kBlockSize, crypto::HashKind::kSha256, key_);
  Verifier original(golden, key_, 7);
  const Bytes first = original.issue_challenge();
  ASSERT_TRUE(original.verify(honest_report(image_, key_, first, 3)).ok());
  (void)original.issue_challenge();  // outstanding when captured
  const Verifier::SessionState saved = original.save_session_state();

  Verifier resumed(golden, key_, saved);
  Verifier restored(golden, key_, 8);
  restored.restore_session_state(saved);
  EXPECT_EQ(resumed.last_counter(), 3u);
  for (Verifier* v : {&original, &resumed, &restored}) {
    // The captured outstanding challenge is still the expected one.
    EXPECT_TRUE(v->verify(honest_report(image_, key_, *saved.outstanding_challenge, 4)).ok());
  }
  const Bytes next = original.issue_challenge();
  EXPECT_EQ(resumed.issue_challenge(), next);
  EXPECT_EQ(restored.issue_challenge(), next);
}

}  // namespace
}  // namespace rasc::attest
