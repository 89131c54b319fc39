#include "src/attest/remediation.hpp"

namespace rasc::attest {

/// The ROM update routine: rewriting flash occupies the CPU like any
/// other work, as one non-preemptible segment (updates are atomic —
/// half-written firmware is worse than infected firmware).
class RemediationService::UpdateProcess final : public sim::Process {
 public:
  explicit UpdateProcess(sim::Device& device)
      : sim::Process("rom/update", /*priority=*/200), device_(device) {}

  void begin(support::Bytes image, std::function<void()> on_done) {
    image_ = std::move(image);
    on_done_ = std::move(on_done);
    pending_ = true;
    device_.cpu().make_ready(*this);
  }

  std::optional<sim::Segment> next_segment() override {
    if (!pending_) return std::nullopt;
    pending_ = false;
    const sim::Duration cost = device_.model().copy_time(image_.size());
    return sim::Segment{cost, [this] {
                          // The ROM routine bypasses MPU locks (it IS the
                          // trusted code base); model by unlocking first.
                          device_.memory().unlock_all();
                          (void)device_.memory().write(0, image_, device_.sim().now(),
                                                       sim::Actor::kSystem);
                          if (on_done_) on_done_();
                        }};
  }

 private:
  sim::Device& device_;
  support::Bytes image_;
  std::function<void()> on_done_;
  bool pending_ = false;
};

RemediationService::RemediationService(sim::Device& device, Verifier& verifier,
                                       AttestationProcess& mp, sim::Link& vrf_to_prv,
                                       sim::Link& prv_to_vrf, support::Bytes golden)
    : device_(device),
      verifier_(verifier),
      protocol_(device, verifier, mp, vrf_to_prv, prv_to_vrf),
      vrf_to_prv_(vrf_to_prv),
      golden_(std::move(golden)),
      updater_(std::make_unique<UpdateProcess>(device)) {}

RemediationService::~RemediationService() = default;

void RemediationService::run(std::uint64_t counter,
                             std::function<void(RemediationOutcome)> done) {
  auto outcome = std::make_shared<RemediationOutcome>();
  protocol_.run(counter, [this, outcome, counter, done = std::move(done)](
                             const OnDemandTimings& first) mutable {
    outcome->first_verdict = first.outcome;
    if (first.outcome.ok()) {
      outcome->final_verdict = first.outcome;
      outcome->reattested_ok = true;
      outcome->finished_at = device_.sim().now();
      done(*outcome);
      return;
    }
    // Compromised: ship the golden image (its size dominates the wire
    // time) and re-flash on arrival.
    outcome->attempted = true;
    vrf_to_prv_.send(golden_, [this, outcome, counter,
                               done = std::move(done)](support::Bytes image) mutable {
      updater_->begin(std::move(image), [this, outcome, counter,
                                         done = std::move(done)]() mutable {
        protocol_.run(counter + 1, [this, outcome, done = std::move(done)](
                                       const OnDemandTimings& second) mutable {
          outcome->final_verdict = second.outcome;
          outcome->reattested_ok = second.outcome.ok();
          outcome->finished_at = device_.sim().now();
          done(*outcome);
        });
      });
    });
  });
}

}  // namespace rasc::attest
