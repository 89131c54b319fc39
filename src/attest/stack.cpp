#include "src/attest/stack.hpp"

namespace rasc::attest {

namespace {

Verifier make_verifier(std::shared_ptr<const GoldenMeasurement> golden,
                       const support::Bytes& key, std::uint64_t challenge_seed,
                       const Verifier::SessionState* session) {
  if (session != nullptr) return Verifier(std::move(golden), key, *session);
  return Verifier(std::move(golden), key, challenge_seed);
}

}  // namespace

Stack::Stack(sim::Simulator& sim, StackConfig config, support::ByteView image,
             const Verifier::SessionState* verifier_session)
    : device(sim, std::move(config.device)),
      verifier(make_verifier(config.golden != nullptr
                                 ? std::move(config.golden)
                                 : std::make_shared<const GoldenMeasurement>(
                                       image, device.memory().block_size(),
                                       config.prover.hash, device.attestation_key(),
                                       config.prover.mac),
                             device.attestation_key(), config.challenge_seed,
                             verifier_session)),
      mp(device, config.prover),
      vrf_to_prv(sim, std::move(config.to_prv)),
      prv_to_vrf(sim, std::move(config.to_vrf)),
      session(device, verifier, mp, vrf_to_prv, prv_to_vrf, config.session) {
  device.memory().load(image);
}

void Stack::attach(obs::MetricsRegistry* metrics, obs::HealthRollup* health) noexcept {
  verifier.set_metrics(metrics);
  vrf_to_prv.set_metrics(metrics);
  prv_to_vrf.set_metrics(metrics);
  session.set_metrics(metrics);
  session.set_health(health);
}

void Stack::infect(std::size_t addr) {
  sim::DeviceMemory& memory = device.memory();
  const std::uint8_t original =
      memory.block_view(memory.block_of(addr))[addr % memory.block_size()];
  const support::Bytes patch = {static_cast<std::uint8_t>(original ^ 0xff)};
  (void)memory.write(addr, patch, 0, sim::Actor::kMalware);
}

}  // namespace rasc::attest
