#pragma once
/// \file session.hpp
/// Verifier-side reliable RA session: a state machine around
/// OnDemandProtocol that guarantees every attestation round reaches a
/// terminal outcome on an unreliable network.  The paper's Section 2.2
/// protocol (and its SeED discussion) assumes messages arrive; on a real
/// link a dropped challenge or report would leave the verifier waiting
/// forever.  The session adds:
///
///   - a per-attempt response timeout;
///   - bounded retries with exponential backoff and deterministic jitter
///     (each retry is a fresh challenge + counter, so the prover's
///     replay guard never blocks a legitimate re-ask);
///   - rejection of stale and duplicate reports (a late answer to a
///     superseded challenge, or a link-duplicated copy of the winning
///     report, is counted and discarded — never double-judged);
///   - a terminal outcome taxonomy that distinguishes a *compromised*
///     device (valid MAC, wrong digest) from an *unreachable* one
///     (silence), a *garbled* one (MAC-failing or unparseable reports)
///     and pure staleness (only replays heard).
///
/// The session also prices reliability: how much prover CPU time went
/// into measurements whose reports never decided the round (the
/// retry-overhead metric of the lossy-link campaign).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "src/attest/protocol.hpp"
#include "src/obs/health.hpp"
#include "src/obs/journal.hpp"

namespace rasc::attest {

enum class SessionOutcome {
  kVerified,        ///< report verified: device healthy
  kCompromised,     ///< authentic report, digest mismatch: device infected
  kTimeout,         ///< retry budget exhausted in silence: unreachable
  kCorruptReport,   ///< budget exhausted; answers arrived but were garbled
  kReplayRejected,  ///< budget exhausted; only stale/duplicate reports heard
};

/// Map a terminal outcome to its obs-layer mirror (health rollups and the
/// journal cannot depend on attest, so they carry obs::RoundOutcome).
obs::RoundOutcome session_outcome_rollup(SessionOutcome outcome);

struct SessionConfig {
  /// How long each attempt waits for a verified report before giving up.
  sim::Duration response_timeout = 500 * sim::kMillisecond;
  /// Total attempts per round (1 = no retries).  Must be >= 1.
  std::size_t max_attempts = 4;
  /// Backoff before retry k (1-based) is
  ///   backoff_base * backoff_factor^(k-1) * (1 + U[0, backoff_jitter])
  /// with U drawn from the session RNG — deterministic from `seed`.
  sim::Duration backoff_base = 50 * sim::kMillisecond;
  double backoff_factor = 2.0;
  double backoff_jitter = 0.2;
  /// Saturating cap on any single backoff wait.  The exponential product
  /// above is computed in double and clamped here *before* the cast to
  /// sim::Duration — without the clamp a deep retry budget or a large
  /// factor overflows the uint64 cast (undefined behavior) and can
  /// schedule a retry absurdly far into the simulated future.
  sim::Duration backoff_max = 60 * sim::kSecond;
  std::uint64_t seed = 0x5e5510;
};

/// Everything a resolved round reports back.
struct RoundResult {
  SessionOutcome outcome = SessionOutcome::kTimeout;
  VerifyOutcome verdict;            ///< decisive report (Verified/Compromised)
  std::size_t attempts = 0;         ///< challenges actually sent
  std::size_t attempt_timeouts = 0; ///< attempts that expired unanswered
  std::size_t replays_rejected = 0; ///< stale/duplicate reports discarded
  std::size_t corrupt_reports = 0;  ///< unparseable or MAC-failing reports
  sim::Time t_started = 0;
  sim::Time t_resolved = 0;
  sim::Duration backoff_total = 0;  ///< verifier time spent waiting to retry
  /// Prover CPU time consumed by this round's measurements, and the share
  /// of it that did not back the terminal verdict (wasted on attempts
  /// whose report was lost, stale or corrupted).
  sim::Duration measure_time = 0;
  sim::Duration wasted_measure_time = 0;
};

/// Counters of one session, or summed over several.  Round outcomes and
/// latencies go to the session's HealthRollup instead (set_health).
struct SessionCounters {
  std::uint64_t rounds_resolved = 0;
  std::uint64_t retries = 0;           ///< backoffs scheduled
  std::uint64_t attempt_timeouts = 0;  ///< attempts that expired unanswered
  std::uint64_t replays_rejected = 0;  ///< stale reports discarded mid-round
  std::uint64_t corrupt_reports = 0;   ///< unparseable or MAC-failing reports
  /// Reports that arrived after their round resolved (e.g. a duplicated
  /// copy of the winning report) — rejected without re-judging.
  std::uint64_t late_reports = 0;

  SessionCounters& operator+=(const SessionCounters& other) noexcept;
};

class ReliableSession {
 public:
  /// All references must outlive the session; the session must outlive
  /// the simulator run it participates in (late network deliveries hold
  /// callbacks into it).
  ReliableSession(sim::Device& prover_device, Verifier& verifier,
                  AttestationProcess& mp, sim::Link& vrf_to_prv,
                  sim::Link& prv_to_vrf, SessionConfig config = {});

  /// Run one reliable round; `done` fires exactly once with a terminal
  /// outcome — there is no code path that leaks the callback.  Throws
  /// std::logic_error if a round is already in flight and
  /// std::invalid_argument on a zero-attempt config.
  void run(std::function<void(RoundResult)> done);

  bool busy() const noexcept { return state_.has_value(); }

  /// True when no round is in flight and the wrapped protocol has no
  /// deferral event outstanding — the only state in which this session
  /// (and the device stack owning it) may be torn down for hibernation.
  bool quiescent() const noexcept {
    return !state_ && protocol_.pending_events() == 0;
  }

  /// Session-and-protocol state that must survive hibernation: the jitter
  /// RNG position, the monotonic counter/round sequences and the prover's
  /// replay-protection watermark (not counters()).  Capture only while
  /// quiescent(); restore into a freshly constructed session with the same
  /// config before its next run().
  struct State {
    support::Xoshiro256::State rng{};
    std::uint64_t next_counter = 1;
    std::uint64_t next_round_seq = 1;
    OnDemandProtocol::State protocol;
  };

  State save_state() const;
  void restore_state(const State& s);

  /// Counters since construction.
  const SessionCounters& counters() const noexcept { return counters_; }

  /// Attach a fleet health rollup (not owned; nullptr to detach).  Every
  /// resolved round records outcome, retry depth, latency and wasted
  /// measurement time — the mergeable summary the exp shard pool folds
  /// across trials.
  void set_health(obs::HealthRollup* health) noexcept { health_ = health; }

 private:
  struct RoundState {
    std::uint64_t round_seq = 0;
    RoundResult result;
    bool waiting_response = false;  ///< an attempt is in flight (vs. backoff)
    bool saw_corrupt = false;
    bool saw_replay = false;
    sim::Duration measure_time_at_start = 0;
    sim::Duration decisive_measure_time = 0;  ///< t_e - t_s of the deciding report
    sim::EventHandle timeout;
    sim::EventHandle retry;
    std::function<void(RoundResult)> done;
  };

  void start_attempt();
  void on_attempt_report(std::uint64_t round_seq, const OnDemandTimings& timings);
  void on_attempt_timeout(std::uint64_t round_seq);
  void schedule_retry();
  void resolve(SessionOutcome outcome);
  /// Journal one session event (round = round_seq of the affected round).
  void journal(obs::JournalEventKind kind, std::uint64_t round, std::uint64_t a = 0,
               std::uint64_t b = 0);

  sim::Device& device_;
  AttestationProcess& mp_;
  SessionConfig config_;
  OnDemandProtocol protocol_;
  support::Xoshiro256 rng_;
  obs::HealthRollup* health_ = nullptr;
  std::string journal_label_;      ///< "session/<device>", set on first journal use
  obs::ActorId journal_actor_;     ///< prover device id
  obs::ActorId journal_session_;   ///< this session's id (interned label)
  std::uint64_t next_counter_ = 1;
  std::uint64_t next_round_seq_ = 1;
  std::optional<RoundState> state_;  ///< empty when idle
  SessionCounters counters_;
};

}  // namespace rasc::attest
