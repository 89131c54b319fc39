#pragma once
/// \file stack.hpp
/// One attested session's object graph: the prover device, the verifier
/// holding its golden, the measurement process, the two faulty links and
/// the ReliableSession over them.  The fleet's per-device stacks,
/// apps::run_network_scenario and the session test harness are all this
/// one assembly, so a fleet of N devices is N of the stacks the session
/// and protocol suites exercise.
///
/// Seeds belong to the caller: the challenge key is a StackConfig field,
/// the link and session seeds ride in their configs, and the Stack derives
/// none.  Key material is the golden's: device, prover and verifier read
/// its key schedule and fingerprint, so a stack over a shared golden
/// derives none.  Members are held by value in construction order;
/// in-flight events capture references into them, so a Stack neither
/// copies nor moves.
///
/// The members count into plain structs and know nothing of
/// obs::MetricsRegistry.  A driver publishes the counts once, after the
/// simulator has run, through export_metrics — the one place the "net.*",
/// "session.*", "verifier.*" and "digest_cache.*" names are spelled.

#include <cstdint>
#include <memory>

#include "src/attest/golden.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/session.hpp"
#include "src/attest/verifier.hpp"
#include "src/obs/health.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/device.hpp"
#include "src/sim/network.hpp"

namespace rasc::attest {

struct StackConfig {
  sim::DeviceConfig device;
  /// Pre-digested golden of the image the stack loads, for callers that
  /// share one across stacks; null = the Stack digests the image under
  /// the prover's hash and MAC.  The verifier holds it either way.
  std::shared_ptr<const GoldenMeasurement> golden = nullptr;
  /// Required: the verifier's K_chal and its challenge domain.
  std::shared_ptr<const crypto::HmacSha256Key> challenge_key = nullptr;
  std::uint64_t challenge_domain = 0;
  ProverConfig prover = {};
  sim::LinkConfig to_prv;  ///< verifier -> prover direction
  sim::LinkConfig to_vrf;  ///< prover -> verifier direction
  SessionConfig session;
};

/// Everything one stack counts (both links summed), summable so a caller
/// that tears stacks down can fold each into a running total first.
struct StackCounters {
  sim::LinkCounters links;
  SessionCounters session;
  VerifierCounters verifier;

  StackCounters& operator+=(const StackCounters& other) noexcept;
};

struct Stack {
  /// Build every member on `sim`, then load `image` — the golden's
  /// content — into device memory.  Throws std::invalid_argument without
  /// a challenge key or when a shared golden's key is not the device's.
  Stack(sim::Simulator& sim, StackConfig config, support::ByteView image);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  StackCounters counters() const noexcept;

  /// The canonical malware patch: flip the byte at `addr` as
  /// sim::Actor::kMalware at t = 0, before any round.
  void infect(std::size_t addr);
  /// ... at the middle of attested memory.
  void infect() { infect(device.memory().size() / 2); }

  sim::Device device;
  Verifier verifier;
  AttestationProcess mp;
  sim::Link vrf_to_prv;
  sim::Link prv_to_vrf;
  ReliableSession session;

 private:
  Stack(sim::Simulator& sim, StackConfig& config, support::ByteView image,
        std::shared_ptr<const GoldenMeasurement> golden);
};

/// "net.*" from the summed links, "verifier.*", and "session.*": the
/// session counters plus "session.rounds", one "session.<outcome>" per
/// terminal outcome and the "session.round_latency_ms" histogram, all
/// read from `rounds` — the HealthRollup the sessions fed.  Zero counts
/// create nothing (MetricsRegistry::add).
void export_metrics(obs::MetricsRegistry& registry, const StackCounters& counters,
                    const obs::HealthRollup& rounds);
void export_metrics(obs::MetricsRegistry& registry, const sim::LinkCounters& links);
void export_metrics(obs::MetricsRegistry& registry, const VerifierCounters& verifier);
void export_metrics(obs::MetricsRegistry& registry, const DigestCache& cache);

}  // namespace rasc::attest
