#include "src/attest/protocol.hpp"

#include <algorithm>
#include <memory>

#include "src/crypto/hmac.hpp"

namespace rasc::attest {

namespace {

constexpr std::size_t kRequestMacSize = crypto::HmacSha256Key::kTagSize;

/// MAC over "ra-challenge-request" || counter || challenge, fed straight
/// into the keyed hash.
void request_mac(const ChallengeRequest& request, const crypto::HmacSha256Key& key,
                 support::MutableByteView out) {
  std::uint8_t counter[8];
  support::put_u64_be(counter, request.counter);
  crypto::Sha256 inner = key.begin();
  inner.update(support::bytes_of("ra-challenge-request"));
  inner.update(counter);
  inner.update(request.challenge);
  key.finish(inner, out);
}

}  // namespace

support::Bytes seal_challenge_request(const ChallengeRequest& request,
                                      const crypto::HmacSha256Key& key) {
  support::Bytes wire(8 + 4 + request.challenge.size() + kRequestMacSize);
  const support::MutableByteView out(wire);
  support::put_u64_be(out.subspan(0, 8), request.counter);
  support::put_u32_be(out.subspan(8, 4), static_cast<std::uint32_t>(request.challenge.size()));
  std::copy(request.challenge.begin(), request.challenge.end(), wire.begin() + 12);
  request_mac(request, key, out.subspan(12 + request.challenge.size()));
  return wire;
}

support::Bytes seal_challenge_request(const ChallengeRequest& request,
                                      support::ByteView key) {
  return seal_challenge_request(request, crypto::HmacSha256Key(key));
}

std::optional<ChallengeRequest> open_challenge_request(support::ByteView wire,
                                                       const crypto::HmacSha256Key& key) {
  if (wire.size() < 8 + 4 + kRequestMacSize) return std::nullopt;
  ChallengeRequest request;
  request.counter = support::get_u64_be(wire.subspan(0, 8));
  const std::uint32_t challenge_len = support::get_u32_be(wire.subspan(8, 4));
  if (wire.size() != 8 + 4 + challenge_len + kRequestMacSize) return std::nullopt;
  request.challenge.assign(wire.begin() + 12, wire.begin() + 12 + challenge_len);
  const support::ByteView mac = wire.subspan(12 + challenge_len, kRequestMacSize);
  std::uint8_t expected[kRequestMacSize];
  request_mac(request, key, expected);
  if (!support::ct_equal(mac, expected)) return std::nullopt;
  return request;
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

void OnDemandProtocol::run(std::uint64_t counter,
                           std::function<void(const OnDemandTimings&)> done) {
  auto timings = std::make_shared<OnDemandTimings>();
  auto& sim = device_.sim();
  timings->counter = counter;

  const support::Bytes challenge = verifier_.issue_challenge(kChallengeSize);
  timings->t_challenge_sent = sim.now();

  support::Bytes request_wire =
      seal_challenge_request({counter, challenge}, device_.attestation_key_schedule());
  vrf_to_prv_.send(std::move(request_wire), [this, timings, done = std::move(done)](
                                                support::Bytes request_bytes) mutable {
    auto& sim = device_.sim();
    const auto request =
        open_challenge_request(request_bytes, device_.attestation_key_schedule());
    if (!request) {
      journal(obs::JournalEventKind::kRequestRejected, sim.now(),
              static_cast<std::uint64_t>(obs::RequestRejection::kBadMac), 0);
      return;
    }
    if (prover_counter_seen_ && request->counter <= prover_last_counter_) {
      ++rejected_replay_;
      journal(obs::JournalEventKind::kRequestRejected, sim.now(),
              static_cast<std::uint64_t>(obs::RequestRejection::kReplayedCounter),
              request->counter);
      return;
    }
    if (mp_.busy() || deferring_) {
      // An earlier request is still in its deferral or its measurement is
      // running; that request's report will answer the verifier (or time
      // out upstream).
      ++ignored_busy_;
      journal(obs::JournalEventKind::kRequestRejected, sim.now(),
              static_cast<std::uint64_t>(obs::RequestRejection::kMeasurementBusy),
              request->counter);
      return;
    }
    prover_counter_seen_ = true;
    prover_last_counter_ = request->counter;
    timings->t_request_received = sim.now();

    // Deferral: authenticate the request / wind down the previous task.
    ++pending_events_;
    deferring_ = true;
    sim.schedule_in(kRequestAuthDelay, [this, timings, request = *request,
                                        done = std::move(done)]() mutable {
      --pending_events_;
      deferring_ = false;
      timings->t_mp_started = device_.sim().now();
      MeasurementContext context{device_.id(), std::move(request.challenge),
                                 request.counter};
      auto on_measured = [this, timings, done = std::move(done)](
                             AttestationResult result) mutable {
        timings->t_s = result.t_s;
        timings->t_e = result.t_e;
        timings->t_r = result.t_r;

        // Ship the report; the wire bytes are what the verifier judges.
        prv_to_vrf_.send(serialize_report_wire(result.report),
                         [this, timings, done = std::move(done)](
                             support::Bytes report_wire) mutable {
          auto& sim = device_.sim();
          timings->t_report_received = sim.now();
          ++pending_events_;
          sim.schedule_in(kVerifyDelay,
                          [this, timings, report_wire = std::move(report_wire),
                           done = std::move(done)]() mutable {
            --pending_events_;
            timings->t_verified = device_.sim().now();
            auto parsed = parse_report_wire(report_wire);
            if (parsed) {
              timings->outcome = verifier_.verify(*parsed, /*expect_challenge=*/true);
              timings->report = std::move(*parsed);
            } else {
              timings->report_wire_ok = false;
              timings->outcome = VerifyOutcome{};
              timings->outcome.challenge_ok = false;
              timings->outcome.counter_ok = false;
            }
            journal(obs::JournalEventKind::kProtocolRound, timings->t_challenge_sent,
                    timings->counter, timings->t_verified - timings->t_challenge_sent);
            done(*timings);
          });
        });
      };
      mp_.start(std::move(context), std::move(on_measured));
    });
  });
}

}  // namespace rasc::attest
