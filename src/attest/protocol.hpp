#pragma once
/// \file protocol.hpp
/// On-demand RA protocol (paper Section 2.2, Figure 1):
///   (1) Vrf sends a challenge-bearing request,
///   (2) Prv receives it, authenticates it, and starts MP (deferral),
///   (3) Prv finishes MP and returns the report,
///   (4) Vrf receives and verifies.
/// Produces the full event timeline the figure illustrates.
///
/// Both legs cross the simulated link as authenticated wire payloads:
/// requests are sealed with the shared attestation key (the "authenticate
/// the request" step made explicit) and reports travel as their canonical
/// serialization, so dropped, duplicated or corrupted messages behave the
/// way they would on a real network.  The prover rejects requests that
/// fail authentication, replay an old counter, or arrive while an accepted
/// request is in its deferral or its measurement is running — a retry
/// layer above (ReliableSession) can therefore re-send challenges without
/// tripping the single-flight measurement process.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/sim/network.hpp"

namespace rasc::attest {

/// Challenge request as it crosses the wire: counter + challenge nonce,
/// authenticated with an HMAC under the shared attestation key so the
/// prover can drop forged or corrupted requests (Section 2.2 step 2).
struct ChallengeRequest {
  std::uint64_t counter = 0;
  Challenge challenge;
};

/// Wire = counter || challenge length || challenge || HMAC-SHA-256 tag
/// under the held key schedule.
support::Bytes seal_challenge_request(const ChallengeRequest& request,
                                      const crypto::HmacSha256Key& key);
support::Bytes seal_challenge_request(const ChallengeRequest& request,
                                      support::ByteView key);
/// Verify and decode a request wire; std::nullopt when truncated, longer
/// than its length field says, carrying a challenge past Challenge's
/// capacity, or when the MAC does not check out.
std::optional<ChallengeRequest> open_challenge_request(support::ByteView wire,
                                                       const crypto::HmacSha256Key& key);
std::optional<ChallengeRequest> open_challenge_request(support::ByteView wire,
                                                       support::ByteView key);

/// Request-authentication / task-teardown deferral on Prv before MP starts
/// (the Figure 1 gap between arrival and t_s).
inline constexpr sim::Duration kRequestAuthDelay = 300 * sim::kMicrosecond;
/// Vrf-side verification latency.
inline constexpr sim::Duration kVerifyDelay = 500 * sim::kMicrosecond;

/// One round as the verifier saw it: the Figure 1 instants, the verdict
/// and the report it judged.
struct OnDemandTimings {
  std::uint64_t counter = 0;        ///< the round's request counter
  sim::Time t_challenge_sent = 0;   ///< Vrf emits the request
  sim::Time t_request_received = 0; ///< request reaches Prv
  sim::Time t_mp_started = 0;       ///< MP dispatched (after auth/deferral)
  sim::Time t_s = 0;                ///< measurement start
  sim::Time t_e = 0;                ///< measurement end
  sim::Time t_r = 0;                ///< lock release
  sim::Time t_report_received = 0;  ///< report reaches Vrf
  sim::Time t_verified = 0;         ///< Vrf verdict ready
  /// False when the delivered report wire failed to parse (in-transit
  /// corruption garbled the structure); `outcome` is then all-fail.
  bool report_wire_ok = true;
  VerifyOutcome outcome;
  /// The report `outcome` judged, as parsed from the delivered wire (what
  /// a non-repudiation audit checks); empty when the wire did not parse.
  Report report;
};

class OnDemandProtocol {
 public:
  /// All references must outlive the protocol object.
  OnDemandProtocol(sim::Device& prover_device, Verifier& verifier,
                   AttestationProcess& mp, sim::Link& vrf_to_prv,
                   sim::Link& prv_to_vrf);

  /// Run one attestation round; `done` fires at t_verified with the
  /// verdict of the wire-delivered report.  Counters must be strictly
  /// increasing across calls on one protocol instance — the prover
  /// silently discards stale-counter requests as replays.  If the network
  /// drops a message the round never completes at this layer; wrap the
  /// protocol in a ReliableSession (session.hpp) for timeout/retry.
  /// `done` fires once per delivered copy of the report, each time with
  /// the attempt's one timeline, and may call run() again.
  void run(std::uint64_t counter, std::function<void(const OnDemandTimings&)> done);

  /// Prover-side request rejections (diagnostics for the session layer).
  std::size_t requests_rejected_replay() const noexcept { return rejected_replay_; }
  std::size_t requests_ignored_busy() const noexcept { return ignored_busy_; }

  /// Protocol-internal deferral events (request-auth delay, verify delay)
  /// scheduled but not yet fired.  They call back into `this`, so the
  /// protocol must not be destroyed while any is outstanding — a fleet
  /// only hibernates a stack when this is zero.
  std::size_t pending_events() const noexcept { return pending_events_; }

  /// Prover-side replay-protection state, for hibernation.  The wiring
  /// (device/verifier/mp/links) is reconstructed from the shard seed; only
  /// this survives across the teardown.  The rejection counters restart.
  struct State {
    bool prover_counter_seen = false;
    std::uint64_t prover_last_counter = 0;
  };

  State save_state() const noexcept { return {prover_counter_seen_, prover_last_counter_}; }

  void restore_state(const State& s) noexcept {
    prover_counter_seen_ = s.prover_counter_seen;
    prover_last_counter_ = s.prover_last_counter;
  }

 private:
  /// One run(), from its request to the last copy of its report.  Every
  /// continuation captures {this, slot} (held inline by std::function); a
  /// late or duplicated copy is judged with its own attempt's record, so
  /// records are dropped only once the protocol is quiescent.
  struct Attempt {
    OnDemandTimings timings;    ///< the instants; each copy's verdict is its own
    ChallengeRequest accepted;  ///< as the prover opened it
    std::function<void(const OnDemandTimings&)> done;
    /// Delivered report copies waiting out kVerifyDelay, oldest first.  The
    /// prover answers one request per counter, so one report is sent per
    /// attempt: its original and at most one duplicate.
    support::Bytes reports[2];
    std::uint8_t first_report = 0;
    std::uint8_t waiting_reports = 0;
  };

  void on_request(std::uint32_t slot, support::ByteView request_wire);
  void on_report(std::uint32_t slot, support::Bytes report_wire);
  void verify_report(std::uint32_t slot);
  /// Drop every attempt record once no copy of any attempt can arrive.
  void release_if_quiescent() noexcept;
  /// Journal under the prover device's id (no-op without a journal).
  void journal(obs::JournalEventKind kind, sim::Time time, std::uint64_t a,
               std::uint64_t b);

  sim::Device& device_;
  Verifier& verifier_;
  AttestationProcess& mp_;
  sim::Link& vrf_to_prv_;
  sim::Link& prv_to_vrf_;
  std::vector<Attempt> attempts_;
  bool prover_counter_seen_ = false;
  /// An accepted request is in its deferral: MP is about to start, so
  /// further requests count as busy.  False whenever pending_events() is
  /// zero, so hibernation need not save it.
  bool deferring_ = false;
  std::uint64_t prover_last_counter_ = 0;
  std::size_t rejected_replay_ = 0;
  std::size_t ignored_busy_ = 0;
  std::size_t pending_events_ = 0;
};

}  // namespace rasc::attest
