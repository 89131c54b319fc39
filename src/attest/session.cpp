#include "src/attest/session.hpp"

#include <cmath>
#include <stdexcept>

namespace rasc::attest {

obs::RoundOutcome session_outcome_rollup(SessionOutcome outcome) {
  // The obs mirror must track this enum one-to-one.
  static_assert(obs::kRoundOutcomeCount == 5);
  switch (outcome) {
    case SessionOutcome::kVerified: return obs::RoundOutcome::kVerified;
    case SessionOutcome::kCompromised: return obs::RoundOutcome::kCompromised;
    case SessionOutcome::kTimeout: return obs::RoundOutcome::kTimeout;
    case SessionOutcome::kCorruptReport: return obs::RoundOutcome::kCorruptReport;
    case SessionOutcome::kReplayRejected: return obs::RoundOutcome::kReplayRejected;
  }
  return obs::RoundOutcome::kTimeout;
}

SessionCounters& SessionCounters::operator+=(const SessionCounters& other) noexcept {
  rounds_resolved += other.rounds_resolved;
  retries += other.retries;
  attempt_timeouts += other.attempt_timeouts;
  replays_rejected += other.replays_rejected;
  corrupt_reports += other.corrupt_reports;
  late_reports += other.late_reports;
  return *this;
}

ReliableSession::ReliableSession(sim::Device& prover_device, Verifier& verifier,
                                 AttestationProcess& mp, sim::Link& vrf_to_prv,
                                 sim::Link& prv_to_vrf, SessionConfig config)
    : device_(prover_device),
      mp_(mp),
      config_(std::move(config)),
      protocol_(prover_device, verifier, mp, vrf_to_prv, prv_to_vrf),
      rng_(config_.seed) {}

void ReliableSession::journal(obs::JournalEventKind kind, std::uint64_t round,
                              std::uint64_t a, std::uint64_t b) {
  auto& sim = device_.sim();
  if (auto* j = sim.journal()) {
    // Built on the first journaled event: sessions without a journal (the
    // fleet's, rebuilt on every wake) never pay for the string.
    if (journal_label_.empty()) journal_label_ = "session/" + device_.id();
    j->append(sim.now(), journal_actor_.get(*j, device_.id()),
              journal_session_.get(*j, journal_label_), round, kind, a, b);
  }
}

void ReliableSession::run(std::function<void(RoundResult)> done) {
  if (state_) {
    throw std::logic_error("ReliableSession: a round is already in flight");
  }
  if (config_.max_attempts == 0) {
    throw std::invalid_argument("ReliableSession: max_attempts must be >= 1");
  }
  state_.emplace();
  state_->round_seq = next_round_seq_++;
  state_->result.t_started = device_.sim().now();
  state_->measure_time_at_start = mp_.total_measure_time();
  state_->done = std::move(done);
  journal(obs::JournalEventKind::kSessionStart, state_->round_seq,
          config_.max_attempts, config_.response_timeout);
  start_attempt();
}

void ReliableSession::start_attempt() {
  auto& sim = device_.sim();
  ++state_->result.attempts;
  state_->waiting_response = true;
  const std::uint64_t seq = state_->round_seq;
  const std::uint64_t counter = next_counter_++;
  journal(obs::JournalEventKind::kSessionAttempt, seq, state_->result.attempts,
          counter);
  protocol_.run(counter, [this, seq](const OnDemandTimings& timings) {
    on_attempt_report(seq, timings);
  });
  state_->timeout = sim.schedule_in(config_.response_timeout,
                                    [this, seq] { on_attempt_timeout(seq); });
}

void ReliableSession::on_attempt_report(std::uint64_t round_seq,
                                        const OnDemandTimings& timings) {
  if (!state_ || state_->round_seq != round_seq) {
    // The round already resolved (e.g. a duplicated copy of the winning
    // report, or an answer that outlived its whole round): reject without
    // touching verifier state again.
    ++counters_.late_reports;
    journal(obs::JournalEventKind::kSessionLateReport, round_seq);
    return;
  }
  RoundResult& result = state_->result;

  if (!timings.report_wire_ok || !timings.outcome.mac_ok) {
    // Garbled in transit (or forged): the attempt's answer is consumed,
    // so retry immediately instead of waiting out the timer.
    ++result.corrupt_reports;
    ++counters_.corrupt_reports;
    journal(obs::JournalEventKind::kSessionCorruptReport, round_seq,
            result.attempts);
    state_->saw_corrupt = true;
    if (!state_->waiting_response) return;  // already backing off
    state_->timeout.cancel();
    state_->waiting_response = false;
    if (result.attempts >= config_.max_attempts) {
      resolve(SessionOutcome::kCorruptReport);
    } else {
      schedule_retry();
    }
    return;
  }
  if (!timings.outcome.challenge_ok || !timings.outcome.counter_ok) {
    // Authentic but stale: an answer to a superseded challenge or an
    // old counter.  Keep waiting — the genuine response may still come.
    ++result.replays_rejected;
    ++counters_.replays_rejected;
    journal(obs::JournalEventKind::kSessionReplayRejected, round_seq,
            result.attempts);
    state_->saw_replay = true;
    return;
  }
  result.verdict = timings.outcome;
  state_->decisive_measure_time = timings.t_e - timings.t_s;
  resolve(result.verdict.digest_ok ? SessionOutcome::kVerified
                                   : SessionOutcome::kCompromised);
}

void ReliableSession::on_attempt_timeout(std::uint64_t round_seq) {
  if (!state_ || state_->round_seq != round_seq) return;
  if (!state_->waiting_response) return;  // superseded by a corrupt-retry
  RoundResult& result = state_->result;
  ++result.attempt_timeouts;
  ++counters_.attempt_timeouts;
  journal(obs::JournalEventKind::kSessionAttemptTimeout, round_seq,
          result.attempts);
  state_->waiting_response = false;
  if (result.attempts >= config_.max_attempts) {
    // Exhausted.  Classify by the best evidence heard this round: garbled
    // answers beat stale ones beat pure silence.
    if (state_->saw_corrupt) {
      resolve(SessionOutcome::kCorruptReport);
    } else if (state_->saw_replay) {
      resolve(SessionOutcome::kReplayRejected);
    } else {
      resolve(SessionOutcome::kTimeout);
    }
    return;
  }
  schedule_retry();
}

void ReliableSession::schedule_retry() {
  auto& sim = device_.sim();
  RoundResult& result = state_->result;
  const double scale =
      std::pow(config_.backoff_factor, static_cast<double>(result.attempts - 1));
  const double jitter_mult = 1.0 + config_.backoff_jitter * rng_.uniform();
  const double raw =
      static_cast<double>(config_.backoff_base) * scale * jitter_mult;
  // Saturating clamp before the integer cast: deep retry budgets or large
  // factors push `raw` past what sim::Duration holds, and casting an
  // out-of-range (or non-finite, or negative) double to uint64 is UB.
  sim::Duration backoff;
  if (!(raw > 0.0)) {
    backoff = 0;
  } else if (raw >= static_cast<double>(config_.backoff_max)) {
    backoff = config_.backoff_max;
  } else {
    backoff = static_cast<sim::Duration>(raw);
  }
  result.backoff_total += backoff;
  ++counters_.retries;
  journal(obs::JournalEventKind::kSessionBackoff, state_->round_seq,
          result.attempts, backoff);
  const std::uint64_t seq = state_->round_seq;
  state_->retry = sim.schedule_in(backoff, [this, seq] {
    if (!state_ || state_->round_seq != seq) return;
    start_attempt();
  });
}

ReliableSession::State ReliableSession::save_state() const {
  if (!quiescent()) {
    throw std::logic_error("ReliableSession: save_state while not quiescent");
  }
  State s;
  s.rng = rng_.state();
  s.next_counter = next_counter_;
  s.next_round_seq = next_round_seq_;
  s.protocol = protocol_.save_state();
  return s;
}

void ReliableSession::restore_state(const State& s) {
  if (busy()) {
    throw std::logic_error("ReliableSession: restore_state while a round is in flight");
  }
  rng_.set_state(s.rng);
  next_counter_ = s.next_counter;
  next_round_seq_ = s.next_round_seq;
  protocol_.restore_state(s.protocol);
}

void ReliableSession::resolve(SessionOutcome outcome) {
  auto& sim = device_.sim();
  RoundState& state = *state_;
  state.timeout.cancel();
  state.retry.cancel();
  RoundResult& result = state.result;
  result.outcome = outcome;
  result.t_resolved = sim.now();
  result.measure_time = mp_.total_measure_time() - state.measure_time_at_start;
  const bool decisive = outcome == SessionOutcome::kVerified ||
                        outcome == SessionOutcome::kCompromised;
  // A decisive verdict means some report reached Vrf, and every report
  // carries the full proof backlog — safe to stop re-proving it.
  if (decisive) mp_.clear_proof_backlog();
  const sim::Duration useful = state.decisive_measure_time;  // 0 unless decisive
  result.wasted_measure_time =
      result.measure_time > useful ? result.measure_time - useful : 0;

  ++counters_.rounds_resolved;
  journal(obs::JournalEventKind::kSessionResolved, state.round_seq,
          static_cast<std::uint64_t>(session_outcome_rollup(outcome)),
          result.wasted_measure_time);
  if (health_ != nullptr) {
    health_->record_round(session_outcome_rollup(outcome), result.attempts,
                          result.t_resolved - result.t_started,
                          result.measure_time, result.wasted_measure_time);
    if (outcome == SessionOutcome::kCompromised && result.verdict.used_tree) {
      if (result.verdict.localized.empty()) {
        health_->record_unlocalized_compromise();
      } else {
        for (const auto& range : result.verdict.localized) {
          health_->record_localization(range.first, range.count,
                                       result.verdict.total_blocks);
        }
      }
    }
  }

  // Pop the state before invoking the callback so `done` may immediately
  // start the next round.
  auto done = std::move(state.done);
  RoundResult finished = std::move(result);
  state_.reset();
  done(std::move(finished));
}

}  // namespace rasc::attest
