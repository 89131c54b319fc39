#include "src/attest/stack.hpp"

#include <string>

namespace rasc::attest {

Stack::Stack(sim::Simulator& sim, StackConfig config, support::ByteView image)
    : Stack(sim, config, image,
            config.golden != nullptr
                ? config.golden
                : std::make_shared<const GoldenMeasurement>(
                      image, config.device.block_size, config.prover.hash,
                      config.device.attestation_key, config.prover.mac)) {}

// The verifier throws before a mismatched golden's schedule is ever used.
Stack::Stack(sim::Simulator& sim, StackConfig& config, support::ByteView image,
             std::shared_ptr<const GoldenMeasurement> golden)
    : device(sim, std::move(config.device), golden->key_schedule()),
      verifier(golden, device.attestation_key(), std::move(config.challenge_key),
               config.challenge_domain),
      mp(device, config.prover, nullptr, golden->key_fingerprint()),
      vrf_to_prv(sim, std::move(config.to_prv)),
      prv_to_vrf(sim, std::move(config.to_vrf)),
      session(device, verifier, mp, vrf_to_prv, prv_to_vrf, config.session) {
  device.memory().load(image);
}

StackCounters& StackCounters::operator+=(const StackCounters& other) noexcept {
  links += other.links;
  session += other.session;
  verifier += other.verifier;
  return *this;
}

StackCounters Stack::counters() const noexcept {
  StackCounters c{vrf_to_prv.counters(), session.counters(), verifier.counters()};
  c.links += prv_to_vrf.counters();
  return c;
}

void Stack::infect(std::size_t addr) {
  sim::DeviceMemory& memory = device.memory();
  const std::uint8_t original =
      memory.block_view(memory.block_of(addr))[addr % memory.block_size()];
  const support::Bytes patch = {static_cast<std::uint8_t>(original ^ 0xff)};
  (void)memory.write(addr, patch, 0, sim::Actor::kMalware);
}

void export_metrics(obs::MetricsRegistry& registry, const StackCounters& counters,
                    const obs::HealthRollup& rounds) {
  export_metrics(registry, counters.links);
  export_metrics(registry, counters.verifier);
  const SessionCounters& session = counters.session;
  registry.add("session.rounds", rounds.rounds());
  for (std::size_t i = 0; i < obs::kRoundOutcomeCount; ++i) {
    const auto outcome = static_cast<obs::RoundOutcome>(i);
    registry.add("session." + std::string(obs::round_outcome_name(outcome)),
                 rounds.outcome_count(outcome));
  }
  registry.add("session.round_latency_ms", rounds.latency_ms());
  registry.add("session.retries", session.retries);
  registry.add("session.attempt_timeouts", session.attempt_timeouts);
  registry.add("session.replays_rejected", session.replays_rejected);
  registry.add("session.corrupt_reports", session.corrupt_reports);
  registry.add("session.late_reports", session.late_reports);
}

void export_metrics(obs::MetricsRegistry& registry, const sim::LinkCounters& links) {
  registry.add("net.sent", links.sent);
  registry.add("net.delivered", links.delivered);
  registry.add("net.dropped", links.dropped);
  registry.add("net.duplicated", links.duplicated);
  registry.add("net.corrupted", links.corrupted);
  registry.add("net.reordered", links.reordered);
  registry.add("net.partition_dropped", links.partition_dropped);
}

void export_metrics(obs::MetricsRegistry& registry, const VerifierCounters& verifier) {
  registry.add("verifier.verify_total", verifier.verify_total);
  registry.add("verifier.verify_fail", verifier.verify_fail);
  registry.add("verifier.fail_mac", verifier.fail_mac);
  registry.add("verifier.fail_digest", verifier.fail_digest);
  registry.add("verifier.fail_challenge", verifier.fail_challenge);
  registry.add("verifier.fail_counter", verifier.fail_counter);
  registry.add("verifier.fail_tree_binding", verifier.fail_tree_binding);
  registry.add("verifier.fail_proof", verifier.fail_proof);
  registry.add("verifier.localized_ranges", verifier.localized_ranges);
}

void export_metrics(obs::MetricsRegistry& registry, const DigestCache& cache) {
  registry.add("digest_cache.hit", cache.hits());
  registry.add("digest_cache.miss", cache.misses());
  registry.add("digest_cache.store", cache.stores());
}

}  // namespace rasc::attest
