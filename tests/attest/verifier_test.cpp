#include "src/attest/verifier.hpp"

#include <gtest/gtest.h>

#include <set>

#include "src/attest/stack.hpp"
#include "src/crypto/hmac.hpp"
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

TEST_F(VerifierTest, GoldenImageMustBeWholeBlocks) {
  EXPECT_THROW(Verifier(crypto::HashKind::kSha256, key_, Bytes(100), kBlockSize),
               std::invalid_argument);
}

TEST_F(VerifierTest, DeterministicChallengesPerSeed) {
  Verifier a(crypto::HashKind::kSha256, key_, image_, kBlockSize, 99);
  Verifier b(crypto::HashKind::kSha256, key_, image_, kBlockSize, 99);
  EXPECT_EQ(a.issue_challenge(), b.issue_challenge());
}

// The wake path: a verifier rebuilt with the same seed that restores a
// saved session continues exactly like the original.
TEST_F(VerifierTest, ResumedFromSessionStateMatchesOriginalAndRestore) {
  const auto golden = std::make_shared<const GoldenMeasurement>(
      image_, kBlockSize, crypto::HashKind::kSha256, key_);
  Verifier original(golden, key_, 7);
  const Bytes first = original.issue_challenge();
  ASSERT_TRUE(original.verify(honest_report(image_, key_, first, 3)).ok());
  const Bytes outstanding = original.issue_challenge();  // outstanding when captured
  const Verifier::SessionState saved = original.save_session_state();
  EXPECT_EQ(saved.issue_index, 2u);
  EXPECT_EQ(saved.outstanding_size, 16u);

  Verifier restored(golden, key_, 7);
  restored.restore_session_state(saved);
  EXPECT_EQ(restored.last_counter(), 3u);
  for (Verifier* v : {&original, &restored}) {
    // The captured outstanding challenge is still the expected one.
    EXPECT_TRUE(v->verify(honest_report(image_, key_, outstanding, 4)).ok());
  }
  EXPECT_EQ(restored.issue_challenge(), original.issue_challenge());
}

// Challenge i of domain d is the first n bytes of
// HMAC-SHA-256(be64(seed), be64(d) || be64(i)), checked against the
// streaming HMAC — an independent path from the held key schedule.
TEST_F(VerifierTest, ChallengeMatchesPrfKnownAnswer) {
  constexpr std::uint64_t kSeed = 0x5eed5eed5eedULL;
  constexpr std::uint64_t kDomain = 4242;
  const auto golden = std::make_shared<const GoldenMeasurement>(
      image_, kBlockSize, crypto::HashKind::kSha256, key_);
  Verifier verifier(golden, key_, make_challenge_key(kSeed), kDomain);
  Bytes prf_key(8);
  support::put_u64_be(prf_key, kSeed);
  crypto::Hmac reference(crypto::HashKind::kSha256, prf_key);
  for (std::uint64_t index = 0; index < 3; ++index) {
    Bytes message(16);
    support::put_u64_be({message.data(), 8}, kDomain);
    support::put_u64_be({message.data() + 8, 8}, index);
    reference.update(message);
    Bytes expected = reference.finalize();
    expected.resize(16);
    EXPECT_EQ(verifier.issue_challenge(16), expected) << "index " << index;
  }
}

TEST_F(VerifierTest, IssueChallengeRejectsSizeOutsideOnePrfBlock) {
  EXPECT_THROW(verifier_.issue_challenge(0), std::invalid_argument);
  EXPECT_THROW(verifier_.issue_challenge(Verifier::kMaxChallengeSize + 1),
               std::invalid_argument);
  EXPECT_EQ(verifier_.issue_challenge(1).size(), 1u);
  EXPECT_EQ(verifier_.issue_challenge(Verifier::kMaxChallengeSize).size(), 32u);
}

// Hibernation saves the issue index, so a rebuilt verifier never repeats
// a challenge its predecessor issued, and still expects the outstanding
// one.
TEST_F(VerifierTest, ChallengesStayFreshAcrossHibernation) {
  const auto golden = std::make_shared<const GoldenMeasurement>(
      image_, kBlockSize, crypto::HashKind::kSha256, key_);
  std::set<Bytes> seen;
  Verifier before(golden, key_, 11);
  Bytes outstanding;
  for (int i = 0; i < 1000; ++i) {
    outstanding = before.issue_challenge();
    seen.insert(outstanding);
  }
  const Verifier::SessionState saved = before.save_session_state();

  Verifier after(golden, key_, 11);
  after.restore_session_state(saved);
  EXPECT_TRUE(after.verify(honest_report(image_, key_, outstanding, 1)).ok());
  for (int i = 0; i < 1000; ++i) seen.insert(after.issue_challenge());
  EXPECT_EQ(seen.size(), 2000u);
}

TEST_F(VerifierTest, DomainsUnderOneKeyShareNoChallenge) {
  const auto golden = std::make_shared<const GoldenMeasurement>(
      image_, kBlockSize, crypto::HashKind::kSha256, key_);
  const auto challenge_key = make_challenge_key(5);
  Verifier a(golden, key_, challenge_key, 0);
  Verifier b(golden, key_, challenge_key, 1);
  std::set<Bytes> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(a.issue_challenge());
    seen.insert(b.issue_challenge());
  }
  EXPECT_EQ(seen.size(), 2000u);
}

// A verifier whose key is not its golden's would fail every report's
// digest check; it is refused at construction instead.
TEST_F(VerifierTest, RejectsKeyThatDiffersFromGoldens) {
  const auto golden = std::make_shared<const GoldenMeasurement>(
      image_, kBlockSize, crypto::HashKind::kSha256, key_);
  EXPECT_THROW(Verifier(golden, to_bytes("other-key"), 7), std::invalid_argument);
  EXPECT_THROW(Verifier(golden, key_, nullptr, 0), std::invalid_argument);
}

TEST(StackTest, RejectsSharedGoldenUnderAnotherKey) {
  sim::Simulator simulator;
  const Bytes image = support::random_bytes(3, kBlocks * kBlockSize);
  StackConfig config;
  config.device = {"dev-1", image.size(), kBlockSize, to_bytes("device-key")};
  config.challenge_key = make_challenge_key(1);
  config.golden = std::make_shared<const GoldenMeasurement>(
      image, kBlockSize, crypto::HashKind::kSha256, to_bytes("golden-key"));
  EXPECT_THROW(Stack(simulator, config, image), std::invalid_argument);
  config.golden = nullptr;  // the stack digests under the device key
  EXPECT_NO_THROW(Stack(simulator, config, image));
}

}  // namespace
}  // namespace rasc::attest
