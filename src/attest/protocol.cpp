#include "src/attest/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "src/crypto/hmac.hpp"

namespace rasc::attest {

namespace {

constexpr std::size_t kRequestMacSize = crypto::HmacSha256Key::kTagSize;

/// MAC over "ra-challenge-request" || counter || challenge (at most
/// Challenge::kMaxSize bytes), assembled on the stack and tagged at once.
void request_mac(std::uint64_t counter, support::ByteView challenge,
                 const crypto::HmacSha256Key& key, support::MutableByteView out) {
  constexpr std::string_view kLabel = "ra-challenge-request";
  std::uint8_t message[kLabel.size() + 8 + Challenge::kMaxSize];
  std::memcpy(message, kLabel.data(), kLabel.size());
  support::put_u64_be({message + kLabel.size(), 8}, counter);
  if (!challenge.empty()) {
    std::memcpy(message + kLabel.size() + 8, challenge.data(), challenge.size());
  }
  key.tag({message, kLabel.size() + 8 + challenge.size()}, out);
}

}  // namespace

support::Bytes seal_challenge_request(const ChallengeRequest& request,
                                      const crypto::HmacSha256Key& key) {
  const std::size_t n = request.challenge.size();
  support::Bytes wire(8 + 4 + n + kRequestMacSize);
  const support::MutableByteView out(wire);
  support::put_u64_be(out.subspan(0, 8), request.counter);
  support::put_u32_be(out.subspan(8, 4), static_cast<std::uint32_t>(n));
  std::copy(request.challenge.begin(), request.challenge.end(), wire.begin() + 12);
  request_mac(request.counter, request.challenge, key, out.subspan(12 + n));
  return wire;
}

support::Bytes seal_challenge_request(const ChallengeRequest& request,
                                      support::ByteView key) {
  return seal_challenge_request(request, crypto::HmacSha256Key(key));
}

std::optional<ChallengeRequest> open_challenge_request(support::ByteView wire,
                                                       const crypto::HmacSha256Key& key) {
  if (wire.size() < 8 + 4 + kRequestMacSize) return std::nullopt;
  const std::uint64_t counter = support::get_u64_be(wire.subspan(0, 8));
  const std::uint32_t challenge_len = support::get_u32_be(wire.subspan(8, 4));
  if (challenge_len > Challenge::kMaxSize ||
      wire.size() != 8 + 4 + challenge_len + kRequestMacSize) {
    return std::nullopt;
  }
  const support::ByteView challenge = wire.subspan(12, challenge_len);
  std::uint8_t expected[kRequestMacSize];
  request_mac(counter, challenge, key, expected);
  if (!support::ct_equal(wire.subspan(12 + challenge_len), expected)) return std::nullopt;
  return ChallengeRequest{counter, challenge};
}

std::optional<ChallengeRequest> open_challenge_request(support::ByteView wire,
                                                       support::ByteView key) {
  return open_challenge_request(wire, crypto::HmacSha256Key(key));
}

OnDemandProtocol::OnDemandProtocol(sim::Device& prover_device, Verifier& verifier,
                                   AttestationProcess& mp, sim::Link& vrf_to_prv,
                                   sim::Link& prv_to_vrf)
    : device_(prover_device),
      verifier_(verifier),
      mp_(mp),
      vrf_to_prv_(vrf_to_prv),
      prv_to_vrf_(prv_to_vrf) {}

void OnDemandProtocol::journal(obs::JournalEventKind kind, sim::Time time,
                               std::uint64_t a, std::uint64_t b) {
  if (auto* j = device_.sim().journal()) {
    j->append(time, j->intern(device_.id()), 0, 0, kind, a, b);
  }
}

void OnDemandProtocol::release_if_quiescent() noexcept {
  if (pending_events_ == 0 && !mp_.busy() && vrf_to_prv_.in_flight() == 0 &&
      prv_to_vrf_.in_flight() == 0) {
    attempts_.clear();
    attempts_.shrink_to_fit();
  }
}

void OnDemandProtocol::run(std::uint64_t counter,
                           std::function<void(const OnDemandTimings&)> done) {
  const auto slot = static_cast<std::uint32_t>(attempts_.size());
  Attempt& attempt = attempts_.emplace_back();
  attempt.timings.counter = counter;
  attempt.timings.t_challenge_sent = device_.sim().now();
  attempt.done = std::move(done);
  vrf_to_prv_.send(
      seal_challenge_request({counter, verifier_.issue()},
                             device_.attestation_key_schedule()),
      [this, slot](support::Bytes request_wire) { on_request(slot, request_wire); });
}

void OnDemandProtocol::on_request(std::uint32_t slot, support::ByteView request_wire) {
  auto& sim = device_.sim();
  const auto request =
      open_challenge_request(request_wire, device_.attestation_key_schedule());
  if (!request) {
    journal(obs::JournalEventKind::kRequestRejected, sim.now(),
            static_cast<std::uint64_t>(obs::RequestRejection::kBadMac), 0);
  } else if (prover_counter_seen_ && request->counter <= prover_last_counter_) {
    ++rejected_replay_;
    journal(obs::JournalEventKind::kRequestRejected, sim.now(),
            static_cast<std::uint64_t>(obs::RequestRejection::kReplayedCounter),
            request->counter);
  } else if (mp_.busy() || deferring_) {
    // An earlier request is still in its deferral or its measurement is
    // running; that request's report will answer the verifier (or time
    // out upstream).
    ++ignored_busy_;
    journal(obs::JournalEventKind::kRequestRejected, sim.now(),
            static_cast<std::uint64_t>(obs::RequestRejection::kMeasurementBusy),
            request->counter);
  } else {
    prover_counter_seen_ = true;
    prover_last_counter_ = request->counter;
    attempts_[slot].timings.t_request_received = sim.now();
    attempts_[slot].accepted = *request;
    // Deferral: authenticate the request / wind down the previous task.
    ++pending_events_;
    deferring_ = true;
    sim.schedule_in(kRequestAuthDelay, [this, slot] {
      --pending_events_;
      deferring_ = false;
      Attempt& attempt = attempts_[slot];
      attempt.timings.t_mp_started = device_.sim().now();
      mp_.start({device_.id(), attempt.accepted.challenge, attempt.accepted.counter},
                [this, slot](const AttestationResult& result) {
                  OnDemandTimings& timings = attempts_[slot].timings;
                  timings.t_s = result.t_s;
                  timings.t_e = result.t_e;
                  timings.t_r = result.t_r;
                  // Ship the report; the wire bytes are what the verifier judges.
                  prv_to_vrf_.send(serialize_report_wire(result.report),
                                   [this, slot](support::Bytes report_wire) {
                                     on_report(slot, std::move(report_wire));
                                   });
                  release_if_quiescent();
                });
    });
    return;
  }
  release_if_quiescent();
}

void OnDemandProtocol::on_report(std::uint32_t slot, support::Bytes report_wire) {
  Attempt& attempt = attempts_[slot];
  attempt.timings.t_report_received = device_.sim().now();
  attempt.reports[(attempt.first_report + attempt.waiting_reports++) % 2] =
      std::move(report_wire);
  ++pending_events_;
  device_.sim().schedule_in(kVerifyDelay, [this, slot] { verify_report(slot); });
}

void OnDemandProtocol::verify_report(std::uint32_t slot) {
  --pending_events_;
  Attempt& attempt = attempts_[slot];
  const support::Bytes report_wire = std::move(attempt.reports[attempt.first_report]);
  attempt.first_report ^= 1;
  --attempt.waiting_reports;

  OnDemandTimings timings = attempt.timings;
  timings.t_verified = device_.sim().now();
  if (auto parsed = parse_report_wire(report_wire)) {
    timings.outcome = verifier_.verify(*parsed, /*expect_challenge=*/true);
    timings.report = std::move(*parsed);
  } else {
    timings.report_wire_ok = false;
    timings.outcome.challenge_ok = false;
    timings.outcome.counter_ok = false;
  }
  journal(obs::JournalEventKind::kProtocolRound, timings.t_challenge_sent,
          timings.counter, timings.t_verified - timings.t_challenge_sent);
  // Everything `done` needs is copied out first: it may call run(), which
  // grows attempts_, or tear the whole stack down once it is quiescent.
  const auto done = attempt.done;
  release_if_quiescent();
  done(timings);
}

}  // namespace rasc::attest
