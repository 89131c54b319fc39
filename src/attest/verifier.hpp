#pragma once
/// \file verifier.hpp
/// The trusted verifier Vrf: holds the golden image of the prover's
/// attested memory and the shared attestation key, issues challenges, and
/// validates reports (Section 2.2's step 4).

#include <memory>
#include <optional>

#include "src/attest/golden.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/report.hpp"
#include "src/crypto/drbg.hpp"

namespace rasc::attest {

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
  /// Per-session verifier state for hibernation: the challenge DRBG
  /// position, the outstanding challenge (if a round is mid-flight when
  /// captured — normally absent at quiescence), and the replay-protection
  /// counter watermark.  Everything else (golden, key, kinds) is immutable
  /// configuration recreated from the shard seed on wake.
  struct SessionState {
    crypto::HmacDrbg::State drbg;
    std::optional<support::Bytes> outstanding_challenge;
    bool last_counter_seen = false;
    std::uint64_t last_counter = 0;
  };

  /// `golden_image` is the expected content of the covered region
  /// (block_size * n bytes).
  Verifier(crypto::HashKind hash, support::Bytes key, support::Bytes golden_image,
           std::size_t block_size, std::uint64_t challenge_seed = 0xc0ffee,
           MacKind mac = MacKind::kHmac);

  /// Share a pre-digested golden image across verifiers (one
  /// GoldenMeasurement per campaign cell instead of one full-image rehash
  /// per verify).  The golden carries hash/MAC kind and block size.
  Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::Bytes key,
           std::uint64_t challenge_seed = 0xc0ffee);

  /// Resume a hibernated session over a shared golden: the challenge DRBG
  /// continues from `session` instead of being instantiated from a seed
  /// (the same verifier as the seeded one after restore_session_state).
  Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::Bytes key,
           const SessionState& session);

  /// Fresh random challenge (also remembered as the expected one).
  support::Bytes issue_challenge(std::size_t size = 16);

  /// Validate a report.  If `expect_challenge` is true the report must
  /// carry the most recently issued challenge (on-demand RA); if false
  /// (self-measurement collection) the challenge field is not checked but
  /// the counter must exceed the last accepted one.
  VerifyOutcome verify(const Report& report, bool expect_challenge = true);

  /// Expected measurement for an arbitrary context (exposed for tests).
  support::Bytes expected_measurement(const MeasurementContext& context) const;

  /// Update the golden image (e.g. after an authorized software update).
  /// Re-digests the image once.
  void set_golden_image(support::Bytes image);

  const GoldenMeasurement& golden() const noexcept { return *golden_; }

  std::uint64_t last_counter() const noexcept { return last_counter_; }
  void reset_counter() noexcept { last_counter_seen_ = false; }

  /// Tallies since construction (not part of SessionState).
  const VerifierCounters& counters() const noexcept { return counters_; }

  SessionState save_session_state() const {
    return {challenge_drbg_.state(), outstanding_challenge_, last_counter_seen_,
            last_counter_};
  }

  void restore_session_state(SessionState s) {
    challenge_drbg_.restore(s.drbg);
    outstanding_challenge_ = std::move(s.outstanding_challenge);
    last_counter_seen_ = s.last_counter_seen;
    last_counter_ = s.last_counter;
  }

 private:
  crypto::HashKind hash_;
  MacKind mac_;
  support::Bytes key_;
  crypto::HmacSha256Key key_schedule_;  ///< of key_: the report MAC check
  std::shared_ptr<const GoldenMeasurement> golden_;
  std::size_t block_size_;
  crypto::HmacDrbg challenge_drbg_;
  std::optional<support::Bytes> outstanding_challenge_;
  bool last_counter_seen_ = false;
  std::uint64_t last_counter_ = 0;
  VerifierCounters counters_;
};

}  // namespace rasc::attest
