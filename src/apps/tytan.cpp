#include "src/apps/tytan.hpp"

#include <algorithm>

#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/malware/malware.hpp"
#include "src/support/rng.hpp"

namespace rasc::apps {

TytanOutcome run_tytan_scenario(const TytanConfig& config) {
  sim::Simulator simulator;
  const std::size_t region = config.region_blocks;
  sim::DeviceConfig dev_config;
  dev_config.id = "prv-tytan";
  dev_config.memory_size = 2 * region * config.block_size;
  dev_config.block_size = config.block_size;
  dev_config.attestation_key = support::to_bytes("tytan-key");
  sim::Device device(simulator, dev_config);

  const support::Bytes image =
      support::random_bytes(0x717a + config.seed, device.memory().size());
  device.memory().load(image);

  // Per-process golden images and verifiers.
  const auto golden = device.memory().snapshot();
  const auto region_bytes = region * config.block_size;
  attest::Verifier verifier_a(
      config.hash, dev_config.attestation_key,
      support::Bytes(golden.begin(), golden.begin() + static_cast<std::ptrdiff_t>(region_bytes)),
      config.block_size);
  attest::Verifier verifier_b(
      config.hash, dev_config.attestation_key,
      support::Bytes(golden.begin() + static_cast<std::ptrdiff_t>(region_bytes), golden.end()),
      config.block_size);

  attest::ProverConfig pc;
  pc.hash = config.hash;
  pc.mode = attest::ExecutionMode::kInterruptible;  // TyTAN allows interrupts
  attest::ProverConfig pc_a = pc;
  pc_a.coverage = attest::Coverage{0, region};
  attest::AttestationProcess mp_a(device, pc_a);
  attest::ProverConfig pc_b = pc;
  pc_b.coverage = attest::Coverage{region, region};
  attest::AttestationProcess mp_b(device, pc_b);

  // Malware state: one body, initially in process A's block 3.
  TytanOutcome outcome;
  const std::size_t home_a = std::min<std::size_t>(3, region - 1);
  const std::size_t home_b = region + std::min<std::size_t>(5, region - 1);
  std::size_t position = home_a;
  bool resident = true;
  support::Bytes clean_a(image.begin() + static_cast<std::ptrdiff_t>(home_a * config.block_size),
                         image.begin() + static_cast<std::ptrdiff_t>((home_a + 1) * config.block_size));
  support::Bytes clean_b(image.begin() + static_cast<std::ptrdiff_t>(home_b * config.block_size),
                         image.begin() + static_cast<std::ptrdiff_t>((home_b + 1) * config.block_size));
  (void)malware::write_body(device, home_a, 0x71);

  // The colluding component (running inside the *other*, unfrozen process)
  // shuttles the body away from whichever region is being measured.  A
  // single-process malware cannot do this: while its region is measured,
  // its only thread is frozen (TyTAN rule), so no observer action.
  auto move_to = [&](std::size_t dest, const support::Bytes& clean_src) {
    if (!resident || position == dest) return;
    if (!malware::write_body(device, dest, 0x71)) return;
    (void)device.memory().write(position * config.block_size, clean_src,
                                simulator.now(), sim::Actor::kMalware);
    position = dest;
    ++outcome.relocations;
  };

  if (config.colluding) {
    mp_a.set_observer([&](std::size_t done, std::size_t) {
      // B's component acts as soon as A's sweep starts (isolation broken).
      if (done == 1 && position < region) move_to(home_b, clean_a);
    });
    mp_b.set_observer([&](std::size_t done, std::size_t) {
      // A is runnable again while B is frozen: pull the body back.
      if (done == 1 && position >= region) move_to(home_a, clean_b);
    });
  }

  // Measure A, then B (TyTAN measures processes individually).
  simulator.schedule_at(10 * sim::kMillisecond, [&] {
    const auto challenge_a = verifier_a.issue_challenge();
    mp_a.start(attest::MeasurementContext{device.id(), challenge_a, 1},
                [&](attest::AttestationResult result_a) {
                  outcome.detected_in_a = !verifier_a.verify(result_a.report).ok();
                  const auto challenge_b = verifier_b.issue_challenge();
                  mp_b.start(attest::MeasurementContext{device.id(), challenge_b, 2},
                             [&](attest::AttestationResult result_b) {
                               outcome.detected_in_b =
                                   !verifier_b.verify(result_b.report).ok();
                               outcome.completed = true;
                             });
                });
  });
  simulator.run();

  outcome.detected = outcome.detected_in_a || outcome.detected_in_b;
  outcome.malware_escaped = resident && !outcome.detected;
  return outcome;
}

}  // namespace rasc::apps
