#pragma once
/// \file scenario.hpp
/// End-to-end experiment drivers used by the Table 1 / Figure 4 benches,
/// the examples and the integration tests.  Each driver assembles a fresh
/// simulated device, verifier, measurement process, (optionally) an
/// application workload and an adversary, runs the simulation, and reports
/// what the *verifier* concluded alongside ground truth and availability
/// metrics.

#include <memory>
#include <optional>

#include "src/attest/golden.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/session.hpp"
#include "src/attest/verifier.hpp"
#include "src/locking/consistency.hpp"
#include "src/locking/policies.hpp"
#include "src/malware/relocating.hpp"
#include "src/malware/transient.hpp"
#include "src/obs/health.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/network.hpp"

namespace rasc::apps {

enum class AdversaryKind {
  kNone,
  kTransientLeaver,  ///< present at t_s, tries to erase itself mid-measurement
  kRelocChase,       ///< half-copy attack on sequential interruptible MP
  kRelocRoving,      ///< SMARM's blind uniformly-roving malware
};

std::string adversary_name(AdversaryKind kind);

struct LockScenarioConfig {
  std::size_t blocks = 64;
  std::size_t block_size = 1024;
  crypto::HashKind hash = crypto::HashKind::kSha256;
  attest::ExecutionMode mode = attest::ExecutionMode::kInterruptible;
  attest::TraversalOrder order = attest::TraversalOrder::kSequential;
  locking::LockMechanism lock = locking::LockMechanism::kNoLock;
  sim::Duration release_delay = 0;  ///< t_r - t_e for the -Ext mechanisms
  AdversaryKind adversary = AdversaryKind::kNone;
  /// Run the data-logging application during the measurement and record
  /// how many of its writes the locks rejected (Table 1 availability).
  bool writer_enabled = false;
  std::uint64_t seed = 1;
};

struct LockScenarioOutcome {
  bool completed = false;            ///< attestation round finished
  attest::VerifyOutcome verdict;     ///< what Vrf concluded
  bool detected = false;             ///< !verdict.ok()
  locking::ConsistencyVerdict consistency;
  sim::Duration measurement_duration = 0;  ///< t_e - t_s
  /// Application writes issued while the measurement (incl. extended
  /// lock) was in force, and how many the MPU rejected.
  std::size_t writer_attempts_during = 0;
  std::size_t writer_blocked_during = 0;
  double writer_availability = 1.0;
  /// Adversary ground truth.
  bool malware_present_at_ts = false;
  bool malware_escaped = false;  ///< present but verifier said OK
  std::size_t malware_blocked_actions = 0;
};

/// One attestation round under the given mechanism/adversary/workload.
LockScenarioOutcome run_lock_scenario(const LockScenarioConfig& config);

// ---------------------------------------------------------------------------

struct FireAlarmScenarioConfig {
  /// Modeled prover memory (timing-wise); backed by a small real buffer.
  std::uint64_t modeled_memory_bytes = 1ull << 30;  ///< the paper's 1 GB
  std::size_t real_blocks = 256;
  crypto::HashKind hash = crypto::HashKind::kSha256;
  attest::ExecutionMode mode = attest::ExecutionMode::kAtomic;
  /// The fire breaks out this long after the measurement starts.
  sim::Duration fire_after_mp_start = 100 * sim::kMillisecond;
  sim::Duration sensor_period = sim::kSecond;
  /// Deadline for each sensor sample (see FireAlarmConfig::deadline).
  sim::Duration sample_deadline = 100 * sim::kMillisecond;
  /// Varies provisioning and the verifier's challenge stream so
  /// Monte-Carlo trials are independent; every value is deterministic.
  std::uint64_t seed = 1;
  /// Provisioning seed override; defaults to a per-trial value derived
  /// from `seed`.  Campaign cells pin it so trials share one golden image.
  std::optional<std::uint64_t> provision_seed;
  /// Pre-digested golden shared across a cell's trials; must match the
  /// provisioned image.  Null = digest a device snapshot per trial.
  std::shared_ptr<const attest::GoldenMeasurement> golden;
  /// Host-side digest cache on the prover (simulated timing unchanged).
  bool use_digest_cache = true;
  /// Optional observability (not owned): `metrics` receives the
  /// fire_alarm.* counts and sample-delay histogram at the end; `journal`
  /// records the full device timeline (CPU segments and waits, the
  /// measurement window, deadline hits/misses, the alarm raise and, with a
  /// digest cache, cache events).
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventJournal* journal = nullptr;
};

struct FireAlarmScenarioOutcome {
  sim::Duration measurement_duration = 0;
  sim::Duration alarm_latency = 0;
  sim::Duration max_sample_delay = 0;
  std::size_t samples_taken = 0;
  std::size_t deadline_misses = 0;
  bool attestation_ok = false;
};

/// The Section 2.5 worked example: fire during attestation of ~1 GB.
FireAlarmScenarioOutcome run_fire_alarm_scenario(const FireAlarmScenarioConfig& config);

// ---------------------------------------------------------------------------

/// A fleet-style reliability scenario: one verifier attests one prover
/// over a lossy bidirectional link, driving several sequential rounds
/// through an attest::ReliableSession.  The interesting outputs are the
/// terminal-outcome mix (does a healthy device get misjudged as
/// unreachable?), the retry overhead (wasted prover CPU time) and the
/// guarantee that every round resolves — no leaked callbacks.
struct NetworkScenarioConfig {
  std::size_t blocks = 32;
  std::size_t block_size = 512;
  crypto::HashKind hash = crypto::HashKind::kSha256;
  attest::ExecutionMode mode = attest::ExecutionMode::kInterruptible;
  /// Sequential attestation rounds per trial (each a full session).
  std::size_t rounds = 4;
  sim::Duration inter_round_gap = 20 * sim::kMillisecond;
  /// Fault model applied to *both* link directions (each direction draws
  /// from its own seed, so challenge loss and report loss decorrelate).
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;
  double reorder_probability = 0.0;
  std::vector<sim::PartitionWindow> partitions;
  /// Session knobs (timeout, retry budget, backoff); the session seed is
  /// overridden with a value derived from `seed`.
  attest::SessionConfig session;
  /// Ground truth: infect one block before the rounds start, so kVerified
  /// becomes a false negative and kCompromised the correct verdict.
  bool infected = false;
  std::uint64_t seed = 1;
  obs::MetricsRegistry* metrics = nullptr;  ///< gets the counts at the end
  /// Flight recorder: link fates ("vrf->prv"/"prv->vrf" actors), session
  /// attempts/backoffs/outcomes, protocol rounds and the prover's CPU and
  /// measurement timeline — the raw material for explain timelines.
  obs::EventJournal* journal = nullptr;
};

struct NetworkScenarioOutcome {
  std::size_t rounds_requested = 0;
  std::size_t rounds_resolved = 0;
  /// Every round reached a terminal outcome (the no-leaked-callback
  /// invariant the session layer promises).
  bool all_resolved = false;
  std::size_t verified = 0;
  std::size_t compromised = 0;
  std::size_t timeouts = 0;
  std::size_t corrupt_report = 0;
  std::size_t replay_rejected = 0;
  std::size_t total_attempts = 0;   ///< challenges sent across all rounds
  std::size_t retries = 0;
  std::size_t replays_rejected = 0; ///< stale reports the session discarded
  std::size_t late_reports = 0;     ///< reports arriving after their round
  sim::Duration total_round_latency = 0;
  sim::Duration max_round_latency = 0;
  sim::Duration total_backoff = 0;
  sim::Duration total_measure_time = 0;
  sim::Duration wasted_measure_time = 0;
  /// Link counters summed over both directions.
  sim::LinkCounters links;
  /// Health rollup the session fed (one record per round).
  obs::HealthRollup health;
};

/// Run `rounds` reliable attestation rounds over a faulty link.
NetworkScenarioOutcome run_network_scenario(const NetworkScenarioConfig& config);

/// Fire-alarm block size (its scenario provisions
/// support::random_bytes(provision_seed, real_blocks * kFireAlarmBlockSize)).
inline constexpr std::size_t kFireAlarmBlockSize = 4096;

}  // namespace rasc::apps
