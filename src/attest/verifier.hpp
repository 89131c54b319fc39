#pragma once
/// \file verifier.hpp
/// The trusted verifier Vrf: holds the golden image of the prover's
/// attested memory (and through it the shared attestation key), issues
/// challenges, and validates reports (Section 2.2's step 4).
///
/// Challenge i of domain d is the first n <= 32 bytes of
/// HMAC-SHA-256(K_chal, be64(d) || be64(i)), a counter-mode PRF (NIST SP
/// 800-108): i never repeats, so no challenge does, and none is
/// predictable without K_chal.  The fleet shares one K_chal per shard.

#include <array>
#include <memory>
#include <type_traits>

#include "src/attest/golden.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/report.hpp"
#include "src/crypto/hmac.hpp"

namespace rasc::attest {

/// Challenge bytes the on-demand protocol sends per round.
inline constexpr std::size_t kChallengeSize = 16;

/// K_chal seeded from a 64-bit value: the HMAC-SHA-256 schedule of be64(seed).
std::shared_ptr<const crypto::HmacSha256Key> make_challenge_key(std::uint64_t seed);

/// Contiguous block range the verifier localized as divergent from the
/// golden image (tree-mode reports only).
struct BlockRange {
  std::size_t first = 0;
  std::size_t count = 0;
};

struct VerifyOutcome {
  bool mac_ok = false;        ///< report authentication (key possession)
  bool digest_ok = false;     ///< measurement matches the golden image
  bool challenge_ok = true;   ///< matches the expected challenge, if any
  bool counter_ok = true;     ///< strictly increasing counter
  bool ok() const noexcept { return mac_ok && digest_ok && challenge_ok && counter_ok; }

  // --- tree-mode diagnostics (untouched for flat reports) ---
  bool used_tree = false;       ///< report carried the tree trailer
  bool tree_root_bound = false; ///< measurement is the MAC of the carried root
  bool proofs_ok = true;        ///< every carried proof verified against the root
  std::size_t total_blocks = 0; ///< golden block count, for normalizing ranges
  /// Mismatching block ranges localized from verified subtree proofs.
  /// Only populated when the MAC held and the root was bound — a forged
  /// report never steers localization.
  std::vector<BlockRange> localized;
};

/// Lifetime tallies of Verifier::verify().  A report counts once in
/// verify_total and, if it failed, once in verify_fail plus once per
/// failed check; the tree fields count tree-mode reports only.
struct VerifierCounters {
  std::uint64_t verify_total = 0;
  std::uint64_t verify_fail = 0;
  std::uint64_t fail_mac = 0;
  std::uint64_t fail_digest = 0;
  std::uint64_t fail_challenge = 0;
  std::uint64_t fail_counter = 0;
  std::uint64_t fail_tree_binding = 0;
  std::uint64_t fail_proof = 0;
  std::uint64_t localized_ranges = 0;  ///< ranges localized, summed over reports

  VerifierCounters& operator+=(const VerifierCounters& other) noexcept;
};

class Verifier {
 public:
  /// One PRF block.
  static constexpr std::size_t kMaxChallengeSize = crypto::HmacSha256Key::kTagSize;

  /// Per-session state for hibernation: the issue index, the outstanding
  /// challenge's length (0 = none; its bytes are recomputed from the
  /// index) and the replay floor.  Golden, K_chal and domain are
  /// configuration, recreated from the shard on wake.
  struct SessionState {
    std::uint64_t issue_index = 0;  ///< challenges issued so far
    std::uint64_t last_counter = 0;
    std::uint8_t outstanding_size = 0;
    bool last_counter_seen = false;
  };

  /// Unseated: no golden and no K_chal until reseat().
  Verifier() = default;

  /// `golden_image` is the expected content of the covered region
  /// (block_size * n bytes).
  Verifier(crypto::HashKind hash, support::ByteView key, support::ByteView golden_image,
           std::size_t block_size, std::uint64_t challenge_seed = 0xc0ffee,
           MacKind mac = MacKind::kHmac);

  /// Share a pre-digested golden image across verifiers (one
  /// GoldenMeasurement per campaign cell instead of one full-image rehash
  /// per verify).  The golden carries hash/MAC kind, block size, key and
  /// key schedule; throws std::invalid_argument unless `key` is the
  /// golden's.  Challenges: make_challenge_key(challenge_seed), domain 0.
  Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::ByteView key,
           std::uint64_t challenge_seed = 0xc0ffee);

  /// As above under a shared, non-null K_chal; verifiers sharing one must
  /// use distinct domains.
  Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::ByteView key,
           std::shared_ptr<const crypto::HmacSha256Key> challenge_key,
           std::uint64_t challenge_domain);

  /// Start over as a verifier freshly built by the constructor above: no
  /// challenge issued or outstanding, no report accepted, zero counters.
  /// Throws as that constructor does, before changing anything.
  void reseat(std::shared_ptr<const GoldenMeasurement> golden, support::ByteView key,
              std::shared_ptr<const crypto::HmacSha256Key> challenge_key,
              std::uint64_t challenge_domain);

  /// The next challenge (also remembered as the expected one).  Throws
  /// std::invalid_argument unless 1 <= size <= kMaxChallengeSize.
  Challenge issue(std::size_t size = kChallengeSize);
  /// issue() as bytes.
  support::Bytes issue_challenge(std::size_t size = kChallengeSize) {
    return issue(size).to_bytes();
  }

  /// Validate a report.  If `expect_challenge` is true the report must
  /// carry the most recently issued challenge (on-demand RA); if false
  /// (self-measurement collection) the challenge field is not checked but
  /// the counter must exceed the last accepted one.
  VerifyOutcome verify(const Report& report, bool expect_challenge = true);

  /// Update the golden image (e.g. after an authorized software update).
  /// Re-digests the image once.
  void set_golden_image(support::Bytes image);

  const GoldenMeasurement& golden() const noexcept { return *golden_; }

  std::uint64_t last_counter() const noexcept { return last_counter_; }
  void reset_counter() noexcept { last_counter_seen_ = false; }

  /// Tallies since construction (not part of SessionState).
  const VerifierCounters& counters() const noexcept { return counters_; }

  SessionState save_session_state() const noexcept {
    return {issue_index_, last_counter_, outstanding_size_, last_counter_seen_};
  }

  /// Resume a session saved under the same golden, K_chal and domain.
  void restore_session_state(const SessionState& s);

 private:
  /// Challenge `index` of this domain, `size` bytes, into outstanding_.
  void derive_challenge(std::uint64_t index, std::size_t size);
  support::ByteView outstanding() const noexcept {
    return {outstanding_.data(), outstanding_size_};
  }

  std::shared_ptr<const GoldenMeasurement> golden_;
  std::shared_ptr<const crypto::HmacSha256Key> challenge_key_;  ///< K_chal
  std::uint64_t challenge_domain_ = 0;
  std::uint64_t issue_index_ = 0;
  std::uint64_t last_counter_ = 0;
  std::array<std::uint8_t, kMaxChallengeSize> outstanding_{};
  std::uint8_t outstanding_size_ = 0;  ///< 0 = no challenge outstanding
  bool last_counter_seen_ = false;
  VerifierCounters counters_;
};

static_assert(Challenge::kMaxSize == Verifier::kMaxChallengeSize,
              "a challenge is carried inline at its largest size");
static_assert(std::is_trivially_copyable_v<Verifier::SessionState>,
              "a hibernation record carries the verifier session by value, no heap");

}  // namespace rasc::attest
