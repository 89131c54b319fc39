/// Section 3.3 (SeED) reproduction: secure non-interactive attestation.
///  (a) secret pseudorandom attestation times defeat schedule-aware
///      transient malware that dodges a predictable schedule;
///  (b) unidirectional reporting turns network loss into false alarms,
///      scaling with the drop rate.

#include <cstdio>

#include "src/malware/transient.hpp"
#include "src/selfmeasure/seed.hpp"
#include "src/support/rng.hpp"
#include "src/support/table.hpp"

using namespace rasc;

namespace {

struct SeedRun {
  std::size_t epochs = 0;
  std::size_t detections = 0;
  std::size_t false_alarms = 0;
  double residency = 0.0;
};

SeedRun run_seed(bool schedule_leaked, double drop, std::uint64_t seed_tag) {
  sim::Simulator simulator;
  sim::Device device(simulator, sim::DeviceConfig{"prv-seed", 16 * 1024, 1024,
                                                  support::to_bytes("seed-key")});
  device.memory().load(support::random_bytes(41, device.memory().size()));
  attest::Verifier verifier(crypto::HashKind::kSha256, support::to_bytes("seed-key"),
                            device.memory().snapshot(), 1024);

  selfm::SeedConfig config;
  config.shared_seed = support::to_bytes("fleet-seed-" + std::to_string(seed_tag));
  config.epoch = 10 * sim::kSecond;
  config.response_window = sim::kSecond;

  sim::LinkConfig link_config;
  link_config.drop_probability = drop;
  link_config.seed = 0x5eed + seed_tag;
  sim::Link to_vrf(simulator, link_config);

  selfm::SeedProver prover(device, config, to_vrf);
  selfm::SeedVerifier seed_verifier(simulator, verifier, config);
  prover.set_delivery_handler(
      [&](const attest::Report& r) { seed_verifier.on_report(r); });

  const sim::Time horizon = sim::from_seconds(200);
  malware::ScheduleAwareTransient::Predictor predictor;
  if (schedule_leaked) {
    predictor = [shared = config.shared_seed,
                 epoch = config.epoch](sim::Time now) -> std::optional<sim::Time> {
      for (std::uint64_t k = 0;; ++k) {
        const sim::Time t = selfm::seed_attestation_time(shared, k, epoch);
        if (t > now) return t;
      }
    };
  } else {
    predictor = [](sim::Time) { return std::nullopt; };
  }
  malware::ScheduleAwareTransient malware(device, 7, predictor,
                                          /*guard=*/2 * sim::kSecond);
  malware.arm(horizon);

  prover.start(horizon);
  seed_verifier.start(horizon);
  simulator.run();

  SeedRun out;
  out.epochs = seed_verifier.outcomes().size();
  out.detections = seed_verifier.detections();
  out.false_alarms = seed_verifier.false_alarms();
  out.residency = malware.residency_fraction();
  return out;
}

}  // namespace

int main() {
  std::printf("=== SeED: non-interactive attestation (Section 3.3) ===\n\n");

  std::printf("--- (a) secret vs. leaked attestation schedule ---\n");
  std::printf("Adversary: schedule-aware transient malware (hides +-2 s around\n");
  std::printf("each predicted measurement); 20 epochs of 10 s.\n\n");
  support::Table schedule({"schedule", "epochs", "detections", "malware residency"});
  const SeedRun leaked = run_seed(/*schedule_leaked=*/true, 0.0, 1);
  const SeedRun secret = run_seed(/*schedule_leaked=*/false, 0.0, 1);
  schedule.add_row({"predictable (leaked/periodic)", std::to_string(leaked.epochs),
                    std::to_string(leaked.detections),
                    support::fmt_percent(leaked.residency, 1)});
  schedule.add_row({"SeED secret pseudorandom", std::to_string(secret.epochs),
                    std::to_string(secret.detections),
                    support::fmt_percent(secret.residency, 1)});
  std::printf("%s\n", schedule.render().c_str());
  std::printf("With a predictable schedule the malware stays resident most of the\n");
  std::printf("time yet is never measured; keeping attestation times secret from\n");
  std::printf("prover software (dedicated timeout circuit) convicts it.\n\n");

  std::printf("--- (b) drop-induced false positives (benign device) ---\n");
  support::Table drops({"link drop rate", "epochs", "false alarms", "false-alarm rate"});
  for (double drop : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    // Benign run: no malware (the predictor-run above had detections; here
    // we arm nothing).
    sim::Simulator simulator;
    sim::Device device(simulator, sim::DeviceConfig{"prv-b", 16 * 1024, 1024,
                                                    support::to_bytes("seed-key")});
    device.memory().load(support::random_bytes(43, device.memory().size()));
    attest::Verifier verifier(crypto::HashKind::kSha256, support::to_bytes("seed-key"),
                              device.memory().snapshot(), 1024);
    selfm::SeedConfig config;
    config.shared_seed = support::to_bytes("fleet-seed-b");
    config.epoch = 10 * sim::kSecond;
    sim::LinkConfig link_config;
    link_config.drop_probability = drop;
    link_config.seed = static_cast<std::uint64_t>(drop * 1000) + 3;
    sim::Link to_vrf(simulator, link_config);
    selfm::SeedProver prover(device, config, to_vrf);
    selfm::SeedVerifier seed_verifier(simulator, verifier, config);
    prover.set_delivery_handler(
        [&](const attest::Report& r) { seed_verifier.on_report(r); });
    const sim::Time horizon = sim::from_seconds(600);
    prover.start(horizon);
    seed_verifier.start(horizon);
    simulator.run();

    const std::size_t epochs = seed_verifier.outcomes().size();
    drops.add_row({support::fmt_percent(drop, 0), std::to_string(epochs),
                   std::to_string(seed_verifier.false_alarms()),
                   support::fmt_percent(
                       static_cast<double>(seed_verifier.false_alarms()) /
                           static_cast<double>(epochs),
                       1)});
  }
  std::printf("%s\n", drops.render().c_str());
  std::printf("Without acknowledgements, every dropped report reads as a missing\n");
  std::printf("attestation: the false-alarm rate tracks the loss rate (paper's\n");
  std::printf("caveat about network partitions for unidirectional SeED).\n");
  return 0;
}
