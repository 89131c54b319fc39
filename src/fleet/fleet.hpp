#pragma once
/// \file fleet.hpp
/// Fleet-scale verifier: one process drives N simulated prover devices —
/// each behind its own pair of faulty sim::Links — through concurrent
/// attest::ReliableSession rounds on a single simulator event loop.  This
/// is ROADMAP item 1: the paper attests one simple device; a deployment
/// verifier must judge tens of thousands without melting.
///
/// Architecture (DESIGN.md §11):
///  - devices are partitioned into contiguous *shards*; every device of a
///    shard is provisioned with the same image and attestation key, so
///    the shard shares one pre-digested attest::GoldenMeasurement and one
///    prover-side attest::DigestCache — verifier-side memory per device
///    therefore shrinks as the fleet grows;
///  - rounds are scheduled in *epochs*: epoch e's challenges issue from
///    t = e * epoch_period, smeared over the first half of the epoch by a
///    StaggerPolicy so measurement load is smoothed, not bursty;
///  - an *admission window* caps concurrently in-flight sessions; ready
///    devices beyond the cap queue FIFO and start as slots free up;
///  - every resolved round feeds three independent obs::HealthRollup
///    folds (per shard, per epoch, fleet total) whose integer aggregates
///    must agree — one of the invariants checked after every epoch.
///
/// Determinism: a fleet run is a pure function of (FleetConfig, Roster).
/// All per-device randomness (links, session jitter) derives from
/// config.seed and the device id via fixed mix64 chains, and challenges
/// are a PRF of (device id, issue index) under a key derived from
/// config.seed and the shard, so the fleet_scale campaign built on top is
/// bit-identical for any --threads, and replay_device() can re-run any
/// single device's rounds in a fresh simulator and reproduce the fleet's
/// verdicts exactly.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/attest/prover.hpp"
#include "src/attest/session.hpp"
#include "src/fleet/roster.hpp"
#include "src/obs/health.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/simulator.hpp"

namespace rasc::fleet {

/// How challenge issuance is spread inside an epoch.
enum class StaggerPolicy {
  kBurst,        ///< everything at the epoch boundary (worst case)
  kUniform,      ///< device d at (period / 2) * d / N
  kShardPhased,  ///< shard s at (period / 2) * s / shards
};

std::string stagger_policy_name(StaggerPolicy policy);
/// Inverse of stagger_policy_name; throws std::invalid_argument.
StaggerPolicy parse_stagger_policy(const std::string& name);

struct FleetConfig {
  std::size_t devices = 1000;
  /// Verifier-side shards (golden + digest-cache sharing domains).
  /// 0 = auto: one shard per 4096 devices, at least one.
  std::size_t shards = 0;
  /// Attestation rounds per device — one per epoch.
  std::size_t epochs = 2;
  /// Epoch e's issuance begins at e * epoch_period.  Epochs may overlap
  /// in flight (a slow round can straddle the boundary); a device only
  /// becomes ready for epoch e+1 once its epoch-e round resolved.
  sim::Duration epoch_period = sim::kSecond;
  StaggerPolicy stagger = StaggerPolicy::kUniform;
  /// Admission window: max sessions concurrently in flight (0 = no cap).
  std::size_t max_in_flight = 1024;

  /// Stack hibernation (the 1M tier): bound the pool of live DeviceStacks
  /// (0 = never hibernate).  A device gets its stack at its first
  /// admission.  Between rounds an idle, fully quiescent device collapses
  /// to a compact HibernatedDevice seed record and its stack goes back to
  /// the fleet's free stacks; its next admission re-seats a free stack
  /// from the shard state and restores the record.  Verdicts, journals and
  /// health rollups are byte-identical either way (chaos-tested).  The cap
  /// is soft: admission always wakes the device it needs, then the pool
  /// shrinks back by hibernating least-recently-idle stacks, so liveness
  /// never depends on the cap.
  std::size_t max_live_stacks = 0;

  /// Shard-wave challenge batching: devices admitted per scheduler event
  /// (0 = auto: devices/64 clamped to [1, devices_per_shard]; 1 = the
  /// legacy one-event-per-device dripper).  Waves never cross a shard
  /// boundary and every device of a wave becomes ready at the wave
  /// leader's stagger offset.  Round outcomes are invariant under wave
  /// size (per-device randomness is admission-time-independent); only the
  /// recorded start times of kUniform runs quantize to wave leaders.
  std::size_t wave_size = 0;

  /// Prover hardware.  Deliberately tiny by default: with
  /// max_live_stacks == 0 every admitted stack stays alive until the run
  /// ends (in-flight events hold references into them), so the per-device
  /// footprint bounds fleet size in host RAM.
  std::size_t blocks = 4;
  std::size_t block_size = 64;
  crypto::HashKind hash = crypto::HashKind::kSha256;
  attest::ExecutionMode mode = attest::ExecutionMode::kAtomic;
  /// Merkle-tree incremental measurement (prover.use_merkle_tree): every
  /// stack primes its tree from the provisioned image *before* the
  /// infection patch lands, so an infected device's first round visits
  /// exactly the infected blocks and its report's subtree proofs let the
  /// verifier localize them (RoundRecord.localized_*).
  bool use_merkle_tree = false;
  /// Number of consecutive blocks the infection patch covers (ground
  /// truth; 1 = the legacy single-byte flip at size/2).  The range is
  /// centered per detail::infection_range.
  std::size_t infection_blocks = 1;

  /// Symmetric per-direction link fault model; per-device decorrelated
  /// seeds; latency and jitter are sim::LinkConfig's defaults.  Timed
  /// partition windows are deliberately not configurable: they are
  /// absolute-time fault state, which replay_device() — which re-runs
  /// rounds at recorded absolute times — could not re-interpret.
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;
  double reorder_probability = 0.0;

  /// Session template; `session.seed` is overridden per device.
  attest::SessionConfig session;

  /// When constructing a FleetVerifier without an explicit Roster: the
  /// fraction of devices infected at provision time (ground truth).
  double infected_fraction = 0.0;
  std::uint64_t seed = 1;

  /// run() throws std::logic_error when an invariant is violated
  /// (violations are collected in FleetResult.invariant_violations
  /// regardless).
  bool enforce_invariants = true;

  obs::MetricsRegistry* metrics = nullptr;  ///< not owned; filled at the end
  obs::EventJournal* journal = nullptr;     ///< not owned; may be null
};

/// One resolved round of one device.
struct RoundRecord {
  sim::Time started = 0;
  obs::RoundOutcome outcome = obs::RoundOutcome::kTimeout;
  std::uint8_t attempts = 0;
  bool resolved = false;
  /// Tree-mode fault localization from the decisive report's subtree
  /// proofs: how many divergent block ranges the verifier localized, and
  /// the first one.  All zero for flat-mode rounds and clean devices.
  std::uint32_t localized_ranges = 0;
  std::uint32_t localized_first = 0;
  std::uint32_t localized_count = 0;
};

struct EpochStats {
  std::size_t admitted = 0;   ///< sessions started for this epoch
  std::size_t resolved = 0;   ///< terminal outcomes observed
  std::size_t misjudged = 0;  ///< outcome disagrees with roster ground truth
  /// Explicit has-value sentinels: an epoch with zero admitted (or zero
  /// resolved) sessions reads as nullopt, distinguishable from an event
  /// at t = 0 (a burst epoch 0 legitimately starts at time zero).
  std::optional<sim::Time> first_start;
  std::optional<sim::Time> last_resolve;
  obs::HealthRollup health;   ///< per-epoch fold (independent of shards)
};

/// Verifier-side memory accounting.  `shared_bytes` is amortized state
/// (goldens, shared digest caches, shard images and keys); per_device is
/// what scales linearly (sessions, verifiers, links, bookkeeping).  The
/// simulated prover hardware itself (device RAM, CPU) is deliberately
/// excluded — it models the *prover's* silicon, not verifier memory.
struct FleetMemoryStats {
  std::size_t shared_bytes = 0;
  std::size_t per_device_bytes = 0;
  std::size_t roster_bytes = 0;
  /// Stacks under hibernation, live and free together: a run builds at
  /// most its live high-water of them, each charged the full stack
  /// footprint.  Zero when stacks are persistent (the full footprint is
  /// then inside per_device_bytes).
  std::size_t pool_bytes = 0;
  std::size_t total_bytes() const noexcept {
    return shared_bytes + per_device_bytes + roster_bytes + pool_bytes;
  }
  /// total / N: b + a/N — strictly decreasing in fleet size while the
  /// shard count stays fixed (the sub-linearity the tests assert).
  double bytes_per_device(std::size_t devices) const noexcept {
    return devices == 0 ? 0.0
                        : static_cast<double>(total_bytes()) /
                              static_cast<double>(devices);
  }
};

struct FleetResult {
  std::size_t devices = 0;
  std::size_t epochs = 0;
  std::size_t shards = 0;

  std::size_t rounds_resolved = 0;
  std::size_t misjudged_rounds = 0;
  std::array<std::uint64_t, obs::kRoundOutcomeCount> outcome_counts{};

  /// Device-major: round(device, epoch) = rounds[device * epochs + epoch].
  std::vector<RoundRecord> rounds;
  std::vector<EpochStats> epoch_stats;

  /// Per-shard folds (fed live by the sessions) and their shard-order
  /// merge.  The invariant checker verifies the integer aggregates of
  /// `health` equal the merge of epoch_stats[*].health — the same rounds
  /// grouped two independent ways.
  std::vector<obs::HealthRollup> shard_health;
  obs::HealthRollup health;

  /// Resolved admission wave size and the number of admission scheduler
  /// events that actually fired (dripper steps, summed across epochs) —
  /// the scheduler-pressure figure wave batching exists to cut.
  std::size_t wave_size = 0;
  std::size_t admission_events = 0;

  /// Stack hibernation accounting (all zero when max_live_stacks == 0).
  /// `wakes` counts restores from a HibernatedDevice record only; a
  /// device's first admission is not a wake.  A run builds at most
  /// live_stacks_high_water stacks: a wake re-seats a free one.
  std::size_t hibernations = 0;
  std::size_t wakes = 0;
  std::size_t live_stacks_high_water = 0;

  std::size_t in_flight_high_water = 0;
  sim::Time makespan = 0;  ///< first challenge issued -> last round resolved
  double rounds_per_sim_second = 0.0;
  /// 1-based count of epochs until every device had resolved at least one
  /// round; 0 = never achieved within config.epochs.
  std::size_t epochs_to_full_coverage = 0;

  std::uint64_t link_sent = 0;
  std::uint64_t link_delivered = 0;
  std::uint64_t link_dropped = 0;
  std::uint64_t link_duplicated = 0;
  std::uint64_t link_corrupted = 0;
  std::uint64_t link_reordered = 0;

  FleetMemoryStats memory;

  /// Golden Merkle roots per shard and their domain-separated pairwise
  /// aggregate (mtree::MerkleTree::combine_roots) — one digest standing
  /// for the expected state of the whole fleet.  Always populated: the
  /// goldens build their trees at construction regardless of
  /// use_merkle_tree.
  std::vector<attest::Digest> shard_tree_roots;
  attest::Digest fleet_tree_root;

  /// Human-readable invariant violations (empty on a healthy run).
  std::vector<std::string> invariant_violations;

  /// Record of one device's round at `epoch` (std::out_of_range past the
  /// last device or epoch).
  const RoundRecord& round(std::size_t device, std::size_t epoch) const;
  /// Recorded start times of one device's rounds, in epoch order — the
  /// exact schedule replay_device() re-runs.
  std::vector<sim::Time> start_times(std::size_t device) const;
};

/// Owns the simulator, the device stacks and the scheduling state.
/// Build, call run() once, read the FleetResult.
class FleetVerifier {
 public:
  /// Roster derived from config.infected_fraction (seeded from
  /// config.seed), matching what replay_device() reconstructs.
  explicit FleetVerifier(FleetConfig config);
  FleetVerifier(FleetConfig config, Roster roster);
  ~FleetVerifier();
  FleetVerifier(const FleetVerifier&) = delete;
  FleetVerifier& operator=(const FleetVerifier&) = delete;

  /// Drive every device through config.epochs rounds and quiesce.
  /// Throws std::logic_error on a second call, or (when
  /// config.enforce_invariants) when the invariant checker trips.
  FleetResult run();

  const Roster& roster() const noexcept;
  std::size_t shard_count() const noexcept;
  std::size_t shard_of(std::size_t device) const noexcept;
  /// Verifier-side memory accounting from the actual container footprints
  /// (capacities, not assumed sizes).  Without hibernation it is constant
  /// from construction on; with hibernation the pool term uses the live-
  /// stack high water, so read it after run() for the final figure.
  FleetMemoryStats memory_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Cross-check harness: rebuild device `device`'s stack exactly as the
/// fleet does — same shard image, key, golden parameters and K_chal, the
/// device's challenge domain and link/session seeds — in a *fresh*
/// simulator, and run one round at each recorded start time (from
/// FleetResult::start_times).  Because every random draw a device's
/// timeline consumes comes from its own per-device streams or domain, the
/// standalone outcomes must equal the fleet's verdicts; a mismatch
/// isolates an orchestration bug (admission window, stagger, shared-cache
/// contamination), not stack wiring.
std::vector<obs::RoundOutcome> replay_device(const FleetConfig& config,
                                             const Roster& roster,
                                             std::size_t device,
                                             const std::vector<sim::Time>& start_times);

namespace detail {

/// Fixed seed-derivation chains (treat like a wire format: the recorded
/// BENCH_fleet baselines depend on them).
std::uint64_t device_stream(std::uint64_t fleet_seed, std::uint64_t device,
                            std::uint64_t salt) noexcept;
std::uint64_t shard_stream(std::uint64_t fleet_seed, std::uint64_t shard,
                           std::uint64_t salt) noexcept;
/// Effective shard count for a config (resolves the 0 = auto rule).
std::size_t resolve_shards(const FleetConfig& config) noexcept;
/// Contiguous shard ranges of a config; the last shard takes the
/// remainder.  The fleet and replay_device share this one mapping.
struct ShardMap {
  std::size_t shards = 1;
  std::size_t devices_per_shard = 1;
  std::size_t shard_of(std::size_t device) const noexcept {
    return std::min(device / devices_per_shard, shards - 1);
  }
};
ShardMap shard_map(const FleetConfig& config) noexcept;
/// Ground-truth infected block range {first, count} for a config —
/// exactly the blocks DeviceStack patches on infected devices (the range
/// the chaos tests compare the verifier's localization against).
std::pair<std::size_t, std::size_t> infection_range(const FleetConfig& config) noexcept;

}  // namespace detail

}  // namespace rasc::fleet
