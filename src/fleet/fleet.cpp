#include "src/fleet/fleet.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>

#include "src/attest/stack.hpp"
#include "src/exp/seeding.hpp"
#include "src/support/rng.hpp"

namespace rasc::fleet {

namespace detail {

std::uint64_t device_stream(std::uint64_t fleet_seed, std::uint64_t device,
                            std::uint64_t salt) noexcept {
  return exp::mix64(fleet_seed ^ exp::mix64(device ^ exp::mix64(salt)));
}

std::uint64_t shard_stream(std::uint64_t fleet_seed, std::uint64_t shard,
                           std::uint64_t salt) noexcept {
  return exp::mix64(exp::mix64(fleet_seed ^ salt) + shard);
}

std::size_t resolve_shards(const FleetConfig& config) noexcept {
  if (config.shards != 0) {
    return std::min(config.shards, std::max<std::size_t>(config.devices, 1));
  }
  const std::size_t autos = (config.devices + 4095) / 4096;
  return std::max<std::size_t>(autos, 1);
}

ShardMap shard_map(const FleetConfig& config) noexcept {
  const std::size_t shards = resolve_shards(config);
  return {shards, (config.devices + shards - 1) / shards};
}

std::pair<std::size_t, std::size_t> infection_range(const FleetConfig& config) noexcept {
  const std::size_t count =
      std::min(std::max<std::size_t>(config.infection_blocks, 1), config.blocks);
  // Centered like the legacy single-byte patch (block size/2), clamped so
  // the range fits; count == 1 reproduces the legacy patch exactly.
  const std::size_t first = std::min(config.blocks / 2, config.blocks - count);
  return {first, count};
}

}  // namespace detail

std::string stagger_policy_name(StaggerPolicy policy) {
  switch (policy) {
    case StaggerPolicy::kBurst: return "burst";
    case StaggerPolicy::kUniform: return "uniform";
    case StaggerPolicy::kShardPhased: return "shard_phased";
  }
  return "?";
}

StaggerPolicy parse_stagger_policy(const std::string& name) {
  for (StaggerPolicy policy : {StaggerPolicy::kBurst, StaggerPolicy::kUniform,
                               StaggerPolicy::kShardPhased}) {
    if (stagger_policy_name(policy) == name) return policy;
  }
  throw std::invalid_argument("unknown stagger policy '" + name + "'");
}

const RoundRecord& FleetResult::round(std::size_t device, std::size_t epoch) const {
  if (epoch >= epochs) {
    throw std::out_of_range("FleetResult::round: epoch out of range");
  }
  return rounds.at(device * epochs + epoch);
}

std::vector<sim::Time> FleetResult::start_times(std::size_t device) const {
  std::vector<sim::Time> times;
  times.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) times.push_back(round(device, e).started);
  return times;
}

namespace {

using detail::device_stream;
using detail::shard_stream;

// Fixed salts for the per-device / per-shard seed streams.  Treat like a
// wire format: the recorded BENCH_fleet baselines depend on them.
constexpr std::uint64_t kChallengeSalt = 0xc0ffee01;
constexpr std::uint64_t kLinkForwardSalt = 0x11c40001;
constexpr std::uint64_t kLinkReverseSalt = 0x11c40002;
constexpr std::uint64_t kSessionSalt = 0x5e551001;
constexpr std::uint64_t kImageSalt = 0x1a9e0001;
constexpr std::uint64_t kKeySalt = 0x6e7f0001;
constexpr std::uint64_t kRosterSalt = 0x1f3c7ed1;

/// Estimated bytes of one DigestCache slot (the Slot layout is private;
/// the accounting only needs a stable, order-of-magnitude figure).
constexpr std::size_t kDigestCacheSlotBytes = sizeof(attest::Digest) + 32;
/// Per-device label strings (device id, link names, session label) —
/// small and constant in N, estimated rather than introspected.
constexpr std::size_t kPerDeviceStringBytes = 128;
constexpr std::size_t kKeyBytes = 16;

/// Order-independent stamp over the memory's generation counters.  A
/// woken device's stack must reproduce it exactly (same load, same
/// infection patch): a mismatch means the wake diverged from the original
/// provisioning and the shared digest cache's generation keys are no
/// longer sound for this device.
std::uint64_t generation_summary(const sim::DeviceMemory& memory) {
  std::uint64_t h = exp::mix64(memory.generation());
  for (std::size_t b = 0; b < memory.block_count(); ++b) {
    h = exp::mix64(h ^ memory.block_generation(b));
  }
  return h;
}

/// Compact between-rounds seed record of one device: everything a re-seated
/// stack cannot re-derive from (FleetConfig, shard state, device id) —
/// a few hundred bytes against ~3 kB for a live DeviceStack, which is
/// what makes the 1M tier fit in host RAM.  Counters are not kept here,
/// and in flat mode nothing here owns heap.
struct HibernatedDevice {
  bool valid = false;
  std::uint32_t wakes = 0;              ///< wakes consumed so far
  std::uint64_t key_fingerprint = 0;    ///< shard golden's key fingerprint
  std::uint64_t generation_summary = 0; ///< memory generations at capture
  attest::ReliableSession::State session;
  attest::Verifier::SessionState verifier;
  attest::AttestationProcess::ProcessState process;
  sim::Link::State vrf_to_prv;
  sim::Link::State prv_to_vrf;
};

/// State shared by every device of one shard: identical provisioned
/// content, one key, one pre-digested golden, one K_chal, one prover-side
/// digest cache (sound to share because same image + same key + same
/// infection patch make block generation -> content a function within the
/// shard).
struct ShardState {
  support::Bytes image;
  support::Bytes key;
  std::shared_ptr<const attest::GoldenMeasurement> golden;
  std::shared_ptr<const crypto::HmacSha256Key> challenge_key;
  attest::DigestCache cache;
  obs::HealthRollup health;
};

ShardState make_shard_state(const FleetConfig& config, std::size_t shard) {
  ShardState state;
  state.image = support::random_bytes(shard_stream(config.seed, shard, kImageSalt),
                                      config.blocks * config.block_size);
  state.key = support::random_bytes(shard_stream(config.seed, shard, kKeySalt), kKeyBytes);
  state.golden = std::make_shared<const attest::GoldenMeasurement>(
      state.image, config.block_size, config.hash, state.key);
  state.challenge_key =
      attest::make_challenge_key(shard_stream(config.seed, shard, kChallengeSalt));
  return state;
}

/// Device `index`'s stack config, written into `stack`: the shard's key,
/// image, golden and K_chal (the index is the challenge domain) and the
/// per-device seeds.  Link latency and jitter are sim::LinkConfig's.  Only
/// the fields set here differ between devices, so refilling one config
/// reuses its strings and key buffer.
void fill_stack_config(attest::StackConfig& stack, const FleetConfig& config,
                       const ShardState& shard, std::size_t index) {
  stack.device.id = "prv-" + std::to_string(index);
  stack.device.memory_size = config.blocks * config.block_size;
  stack.device.block_size = config.block_size;
  stack.device.attestation_key = shard.key;
  stack.golden = shard.golden;
  stack.challenge_key = shard.challenge_key;
  stack.challenge_domain = index;
  stack.prover.hash = config.hash;
  stack.prover.mode = config.mode;
  stack.prover.use_merkle_tree = config.use_merkle_tree;
  for (sim::LinkConfig* link : {&stack.to_prv, &stack.to_vrf}) {
    link->drop_probability = config.drop_probability;
    link->duplicate_probability = config.duplicate_probability;
    link->corrupt_probability = config.corrupt_probability;
    link->reorder_probability = config.reorder_probability;
  }
  stack.to_prv.name = "vrf->prv";
  stack.to_prv.seed = device_stream(config.seed, index, kLinkForwardSalt);
  stack.to_vrf.name = "prv->vrf";
  stack.to_vrf.seed = device_stream(config.seed, index, kLinkReverseSalt);
  stack.session = config.session;
  stack.session.seed = device_stream(config.seed, index, kSessionSalt);
}

/// One prover and everything the verifier keeps to talk to it; the shard
/// lends it the golden and the prover-side digest cache.  CPU segment
/// completions and link deliveries capture references into the stack, so
/// it may only be re-seated or torn down while quiescent().  Seated on its
/// device's first admission, a stack stays with that device until the run
/// ends unless hibernation (max_live_stacks) collapses the device, idle
/// and quiescent, to a HibernatedDevice record and returns the stack to
/// the fleet's free pool; the next admission of any device re-seats a
/// free stack.  The admission window bounds *concurrent sessions*, not
/// live objects.
struct DeviceStack : attest::Stack {
  explicit DeviceStack(sim::Simulator& sim) : attest::Stack(sim) {}

  /// Seat on device `index` of `shard`, exactly as a fresh build for it;
  /// `scratch` carries the config between seats so that a warm seat
  /// allocates nothing.
  void seat(attest::StackConfig& scratch, const FleetConfig& config, ShardState& shard,
            std::size_t index) {
    fill_stack_config(scratch, config, shard, index);
    reseat(scratch, shard.image);
    mp.set_shared_digest_cache(&shard.cache);
    session.set_health(&shard.health);
  }

  /// First-admission provisioning; a device woken from its
  /// HibernatedDevice record takes restore() instead.  The order is fixed:
  /// prime from the *clean* image strictly before the infection patch
  /// lands, so the infection is the only dirtiness the first round sees
  /// and the subtree proofs localize exactly the infected range.
  void provision(const FleetConfig& config, bool infected) {
    if (config.use_merkle_tree) {
      // The golden already holds every block digest of the clean image,
      // computed once per shard in one multi-lane batch
      // (GoldenMeasurement's batched constructor).  Prime the tree from
      // those digests directly instead of re-digesting blocks * devices
      // times — the prover's (mac, hash, key) match the golden's by
      // construction (same FleetConfig, same shard key).
      mp.prime_tree_from(verifier.golden().block_digests());
    }
    patch_infection(config, infected);
  }

  /// The infection writes alone — shard-deterministic: same blocks, same
  /// byte flips for every infected device of the shard, planted before
  /// any round.  Required both for soundly sharing the shard digest cache
  /// (the infected content at generation 2 is one value shard-wide) and
  /// for the roster's ground truth (correct verdict = kCompromised).  A
  /// woken device replays exactly these writes so its generation
  /// counters match its first provisioning's (see generation_summary).
  void patch_infection(const FleetConfig& config, bool infected) {
    if (!infected) return;
    const auto [first, count] = detail::infection_range(config);
    for (std::size_t block = first; block < first + count; ++block) {
      infect(block * config.block_size);
    }
  }

  /// Collapse to the seed record.  Caller guarantees quiescent().
  HibernatedDevice hibernate(std::uint32_t wakes) const {
    HibernatedDevice h;
    h.valid = true;
    h.wakes = wakes;
    h.key_fingerprint = verifier.golden().key_fingerprint();
    h.generation_summary = generation_summary(device.memory());
    h.session = session.save_state();
    h.verifier = verifier.save_session_state();
    h.process = mp.save_process_state();
    h.vrf_to_prv = vrf_to_prv.save_state();
    h.prv_to_vrf = prv_to_vrf.save_state();
    return h;
  }

  /// Wake path (seat() already loaded the clean shard image): replay the
  /// infection patch, then — tree mode only — re-prime the tree from the
  /// *current* (patched) content.  The persistent stack's tree was already
  /// consistent with that content, so re-priming from the golden digests
  /// here would spuriously re-dirty the infected blocks and change the
  /// next round's visit set.  Finally restore the protocol positions over
  /// the freshly seated ones.
  void restore(const FleetConfig& config, bool infected,
               const HibernatedDevice& h) {
    patch_infection(config, infected);
    if (config.use_merkle_tree) mp.prime_tree();
    verifier.restore_session_state(h.verifier);
    session.restore_state(h.session);
    mp.restore_process_state(h.process);
    vrf_to_prv.restore_state(h.vrf_to_prv);
    prv_to_vrf.restore_state(h.prv_to_vrf);
  }
};

/// Verifier-side bytes of one live stack: the object itself and its label
/// strings.  Key material is the shard's (see memory_stats).
constexpr std::size_t kLiveStackBytes = sizeof(DeviceStack) + kPerDeviceStringBytes;

}  // namespace

struct FleetVerifier::Impl {
  FleetConfig config;
  Roster roster;
  detail::ShardMap shard_map;
  bool hibernation = false;  ///< config.max_live_stacks != 0
  std::size_t wave = 1;      ///< resolved admission wave size
  bool ran = false;

  sim::Simulator simulator;
  std::vector<ShardState> shards;
  /// Null slots are hibernated (or not yet admitted) devices.
  std::vector<std::unique_ptr<DeviceStack>> stacks;
  /// Stacks of hibernated devices, last returned on top.  One pool for
  /// every shard: ensure_stack re-seats the top one for whichever device
  /// it admits, so a run builds at most live_stacks_high_water stacks.
  std::vector<std::unique_ptr<DeviceStack>> free_stacks;
  /// ensure_stack's config, kept so each seat reuses its buffers.
  attest::StackConfig seat_config;
  std::vector<HibernatedDevice> hibernated;  ///< sized N iff hibernation
  std::size_t live_stacks = 0;
  /// Counters of every stack torn down so far (finalize() adds the rest).
  attest::StackCounters hibernated_counters;

  /// Per-device scheduling record.  `pending` counts epochs whose stagger
  /// time has passed but whose round has not started yet (waiting on the
  /// admission window or on the device's previous round).
  struct DeviceRec {
    std::uint32_t pending = 0;
    std::uint32_t rounds_done = 0;
    bool queued = false;
    bool in_flight = false;
    bool idle_listed = false;  ///< sitting in idle_lru (hibernation only)
  };
  std::vector<DeviceRec> recs;
  std::deque<std::uint32_t> admission;
  /// Hibernation candidates, least-recently-idle first.  Entries are
  /// validated lazily at pop time (the device may have been readmitted).
  std::deque<std::uint32_t> idle_lru;
  std::size_t in_flight_count = 0;

  FleetResult result;
  sim::Time first_start = 0;
  sim::Time last_resolve = 0;
  bool any_started = false;

  Impl(FleetConfig cfg, Roster ros)
      : config(std::move(cfg)), roster(std::move(ros)) {
    if (config.devices == 0) throw std::invalid_argument("FleetConfig.devices == 0");
    if (config.epochs == 0) throw std::invalid_argument("FleetConfig.epochs == 0");
    if (config.epoch_period == 0) {
      throw std::invalid_argument("FleetConfig.epoch_period == 0");
    }
    if (roster.size() != config.devices) {
      throw std::invalid_argument("roster size != FleetConfig.devices");
    }
    hibernation = config.max_live_stacks != 0;
    shard_map = detail::shard_map(config);
    wave = config.wave_size != 0
               ? config.wave_size
               : std::min(std::max<std::size_t>(config.devices / 64, 1),
                          shard_map.devices_per_shard);

    simulator.set_journal(config.journal);

    shards.reserve(shard_map.shards);
    for (std::size_t s = 0; s < shard_map.shards; ++s) {
      shards.push_back(make_shard_state(config, s));
    }
    stacks.resize(config.devices);
    if (hibernation) hibernated.resize(config.devices);
    recs.resize(config.devices);
  }

  std::size_t shard_of(std::size_t device) const noexcept {
    return shard_map.shard_of(device);
  }

  void journal_fleet(obs::JournalEventKind kind, std::size_t d, std::uint64_t a,
                     std::uint64_t b) {
    if (config.journal != nullptr) {
      config.journal->append(simulator.now(),
                             config.journal->intern("prv-" + std::to_string(d)),
                             0, 0, kind, a, b);
    }
  }

  /// Live stack for device d — the one place a fleet gets a DeviceStack.
  /// It re-seats the top of the free pool, and builds a new stack only
  /// when the pool is empty; seating journals nothing, so which stack a
  /// device gets is unobservable.  A device's first admission provisions
  /// the seated stack; a wake restores it from the HibernatedDevice
  /// record, verifying the wake reproduced the captured key fingerprint
  /// and generation summary.
  DeviceStack& ensure_stack(std::size_t d) {
    if (stacks[d]) return *stacks[d];
    const std::size_t s = shard_of(d);
    HibernatedDevice* woken =
        hibernation && hibernated[d].valid ? &hibernated[d] : nullptr;
    std::unique_ptr<DeviceStack> stack;
    if (free_stacks.empty()) {
      stack = std::make_unique<DeviceStack>(simulator);
    } else {
      stack = std::move(free_stacks.back());
      free_stacks.pop_back();
    }
    stack->seat(seat_config, config, shards[s], d);
    ++live_stacks;
    result.live_stacks_high_water =
        std::max(result.live_stacks_high_water, live_stacks);
    if (woken != nullptr) {
      HibernatedDevice& h = *woken;
      stack->restore(config, roster.infected(d), h);
      if (generation_summary(stack->device.memory()) != h.generation_summary) {
        violation("device " + std::to_string(d) +
                  " woke with mismatched generation summary");
      }
      if (shards[s].golden->key_fingerprint() != h.key_fingerprint) {
        violation("device " + std::to_string(d) +
                  " woke with mismatched key fingerprint");
      }
      h.valid = false;
      ++h.wakes;
      ++result.wakes;
      journal_fleet(obs::JournalEventKind::kFleetWake, d, h.wakes, live_stacks);
    } else {
      stack->provision(config, roster.infected(d));
    }
    stacks[d] = std::move(stack);
    return *stacks[d];
  }

  /// Collapse device d to its record and return its stack to the pool.
  /// This may run inside the stack's own verdict callback (on_round_done
  /// -> pump -> shrink_pool): the stack then stays untouched in the pool
  /// until a later admission re-seats it, by which time that callback
  /// chain has unwound — nothing in it touches the stack after done().
  void hibernate_stack(std::size_t d) {
    hibernated[d] = stacks[d]->hibernate(hibernated[d].wakes);
    hibernated_counters += stacks[d]->counters();
    journal_fleet(obs::JournalEventKind::kFleetHibernate, d, recs[d].rounds_done,
                  live_stacks - 1);
    free_stacks.push_back(std::move(stacks[d]));
    --live_stacks;
    ++result.hibernations;
  }

  /// Hibernate quiescent stacks until the pool is back under the (soft)
  /// cap, evicting from the *most recently idled* end: the candidate list
  /// fills in resolution order, which under a saturated admission window
  /// is also re-admission order — so the back holds the devices that will
  /// wait longest before their next round, and evicting there avoids
  /// tearing down a stack that is about to start.  Entries are validated
  /// lazily (the device may be mid-round again); still-settling stacks
  /// (e.g. a duplicated report copy in flight) are recycled and revisited
  /// on a later pool event — the scan bound keeps that from spinning.
  void shrink_pool() {
    if (!hibernation) return;
    std::size_t scan = idle_lru.size();
    while (live_stacks > config.max_live_stacks && scan-- > 0) {
      const std::uint32_t d = idle_lru.back();
      idle_lru.pop_back();
      DeviceRec& rec = recs[d];
      rec.idle_listed = false;
      if (!stacks[d] || rec.in_flight) continue;
      if (!stacks[d]->quiescent()) {
        rec.idle_listed = true;
        idle_lru.push_front(d);
        continue;
      }
      hibernate_stack(d);
    }
  }

  /// Issuance offset inside an epoch: the stagger smears over period/2.
  sim::Duration stagger_offset(std::size_t device) const noexcept {
    const sim::Duration span = config.epoch_period / 2;
    switch (config.stagger) {
      case StaggerPolicy::kBurst:
        return 0;
      case StaggerPolicy::kUniform:
        return span * device / config.devices;
      case StaggerPolicy::kShardPhased:
        return span * shard_of(device) / shard_map.shards;
    }
    return 0;
  }

  void violation(std::string what) {
    result.invariant_violations.push_back(std::move(what));
  }

  /// Last device (exclusive) of the admission wave led by `first`.  A wave
  /// never crosses a shard boundary, so every member primes from the same
  /// shard golden and the wave admits with one batched provisioning pass.
  std::size_t wave_end(std::size_t first) const noexcept {
    return std::min({first + wave,
                     (shard_of(first) + 1) * shard_map.devices_per_shard,
                     static_cast<std::size_t>(config.devices)});
  }

  /// One firing of the dripper chain of the epoch starting at `start`:
  /// admit every shard wave whose *leader's* stagger offset has passed,
  /// then reschedule for the next wave — devices/wave scheduler events per
  /// epoch instead of N.  Waves leave outcomes unchanged (each device's
  /// rng/session streams are seeded independently of admission time;
  /// wave_size=1 is the legacy per-device drip).  The simulator is a
  /// member, so `this` outlives every event.
  void drip(sim::Time start, std::size_t next) {
    ++result.admission_events;
    while (next < config.devices && start + stagger_offset(next) <= simulator.now()) {
      const std::size_t end = wave_end(next);
      for (std::size_t d = next; d < end; ++d) device_ready(d);
      next = end;
    }
    if (next < config.devices) {
      simulator.schedule_at(start + stagger_offset(next),
                            [this, start, next] { drip(start, next); });
    }
  }

  void device_ready(std::size_t d) {
    DeviceRec& rec = recs[d];
    ++rec.pending;
    if (!rec.queued && !rec.in_flight) {
      rec.queued = true;
      admission.push_back(static_cast<std::uint32_t>(d));
    }
    pump();
  }

  void pump() {
    while (!admission.empty() &&
           (config.max_in_flight == 0 || in_flight_count < config.max_in_flight)) {
      const std::size_t d = admission.front();
      admission.pop_front();
      start_round(d);
    }
    shrink_pool();
  }

  void start_round(std::size_t d) {
    DeviceRec& rec = recs[d];
    rec.queued = false;
    --rec.pending;
    rec.in_flight = true;
    ++in_flight_count;
    result.in_flight_high_water =
        std::max(result.in_flight_high_water, in_flight_count);
    EpochStats& es = result.epoch_stats[rec.rounds_done];
    if (es.admitted == 0) es.first_start = simulator.now();
    ++es.admitted;
    if (!any_started) {
      any_started = true;
      first_start = simulator.now();
    }
    ensure_stack(d).session.run(
        [this, d](attest::RoundResult r) { on_round_done(d, std::move(r)); });
  }

  void on_round_done(std::size_t d, attest::RoundResult r) {
    DeviceRec& rec = recs[d];
    const std::size_t epoch = rec.rounds_done;
    ++rec.rounds_done;
    rec.in_flight = false;
    --in_flight_count;

    const obs::RoundOutcome outcome = attest::session_outcome_rollup(r.outcome);
    RoundRecord& record = result.rounds[d * config.epochs + epoch];
    record.started = r.t_started;
    record.outcome = outcome;
    record.attempts =
        static_cast<std::uint8_t>(std::min<std::size_t>(r.attempts, 255));
    record.resolved = true;
    if (r.verdict.used_tree && !r.verdict.localized.empty()) {
      record.localized_ranges =
          static_cast<std::uint32_t>(r.verdict.localized.size());
      record.localized_first =
          static_cast<std::uint32_t>(r.verdict.localized.front().first);
      record.localized_count =
          static_cast<std::uint32_t>(r.verdict.localized.front().count);
    }

    ++result.rounds_resolved;
    ++result.outcome_counts[static_cast<std::size_t>(outcome)];
    last_resolve = std::max(last_resolve, r.t_resolved);

    EpochStats& es = result.epoch_stats[epoch];
    ++es.resolved;
    es.last_resolve = std::max(es.last_resolve.value_or(0), r.t_resolved);
    // Independent epoch-grouped fold with the exact arguments the session
    // records into its shard rollup — the two groupings must agree.
    es.health.record_round(outcome, r.attempts, r.t_resolved - r.t_started,
                           r.measure_time, r.wasted_measure_time);

    const obs::RoundOutcome expected = roster.infected(d)
                                           ? obs::RoundOutcome::kCompromised
                                           : obs::RoundOutcome::kVerified;
    if (outcome != expected) {
      ++result.misjudged_rounds;
      ++es.misjudged;
    }

    if (r.attempts == 0 || r.attempts > config.session.max_attempts) {
      violation("device " + std::to_string(d) + " round " +
                std::to_string(epoch) + " used " + std::to_string(r.attempts) +
                " attempts (budget " +
                std::to_string(config.session.max_attempts) + ")");
    }

    if (rec.pending > 0 && !rec.queued) {
      rec.queued = true;
      admission.push_back(static_cast<std::uint32_t>(d));
    }
    if (hibernation && !rec.idle_listed) {
      // Hibernation candidate — even when already re-queued: under a
      // saturated admission window a device can wait whole epochs between
      // resolve and next start, and that parked stack is exactly what the
      // pool must not keep live.  start_round wakes it when its turn
      // comes.
      rec.idle_listed = true;
      idle_lru.push_back(static_cast<std::uint32_t>(d));
    }
    pump();
    if (es.resolved == config.devices) check_epoch(epoch);
  }

  /// Invariants asserted the moment an epoch's last round resolves.
  void check_epoch(std::size_t epoch) {
    const EpochStats& es = result.epoch_stats[epoch];
    if (es.admitted != config.devices) {
      violation("epoch " + std::to_string(epoch) + " admitted " +
                std::to_string(es.admitted) + " of " +
                std::to_string(config.devices) + " devices");
    }
    if (es.health.rounds() != config.devices) {
      violation("epoch " + std::to_string(epoch) + " health rollup saw " +
                std::to_string(es.health.rounds()) + " rounds, expected " +
                std::to_string(config.devices));
    }
    if (config.max_in_flight != 0 &&
        result.in_flight_high_water > config.max_in_flight) {
      violation("in-flight high water " +
                std::to_string(result.in_flight_high_water) +
                " exceeded admission window " +
                std::to_string(config.max_in_flight));
    }
  }

  /// Compare two rollups' integer aggregates (double sums may differ in
  /// the last ulp between groupings; counts may not differ at all).
  static bool same_integer_aggregates(const obs::HealthRollup& a,
                                      const obs::HealthRollup& b) {
    if (a.rounds() != b.rounds()) return false;
    for (std::size_t i = 0; i < obs::kRoundOutcomeCount; ++i) {
      const auto outcome = static_cast<obs::RoundOutcome>(i);
      if (a.outcome_count(outcome) != b.outcome_count(outcome)) return false;
    }
    for (std::size_t depth = 1; depth <= obs::HealthRollup::kMaxRetryDepth;
         ++depth) {
      if (a.retry_depth(depth) != b.retry_depth(depth)) return false;
    }
    return a.latency_ms().count() == b.latency_ms().count();
  }

  void finalize() {
    const std::size_t expected_rounds = config.devices * config.epochs;
    if (result.rounds_resolved != expected_rounds) {
      violation("resolved " + std::to_string(result.rounds_resolved) + " of " +
                std::to_string(expected_rounds) + " rounds");
    }
    if (in_flight_count != 0 || !admission.empty()) {
      violation("simulation quiesced with " + std::to_string(in_flight_count) +
                " sessions in flight and " + std::to_string(admission.size()) +
                " queued");
    }
    for (std::size_t d = 0; d < config.devices; ++d) {
      if (recs[d].rounds_done != config.epochs || recs[d].pending != 0) {
        violation("device " + std::to_string(d) + " finished " +
                  std::to_string(recs[d].rounds_done) + " of " +
                  std::to_string(config.epochs) + " rounds (" +
                  std::to_string(recs[d].pending) + " pending)");
        break;  // one witness is enough; the counts above give the total
      }
      if (stacks[d] && stacks[d]->session.busy()) {
        violation("device " + std::to_string(d) +
                  " session still busy after drain");
        break;
      }
    }

    // Fleet total = shard-order merge of the per-shard rollups the
    // sessions fed live.  It must agree (integer-exactly) with the merge
    // of the independently accumulated per-epoch rollups — the same
    // rounds grouped two different ways — and with a reversed-order merge
    // (associativity/commutativity witness on real data).
    result.shard_health.reserve(shards.size());
    for (const ShardState& shard : shards) {
      result.shard_health.push_back(shard.health);
    }
    for (const obs::HealthRollup& shard : result.shard_health) {
      result.health.merge(shard);
    }
    obs::HealthRollup by_epoch;
    for (const EpochStats& es : result.epoch_stats) by_epoch.merge(es.health);
    if (!same_integer_aggregates(result.health, by_epoch)) {
      violation("shard-grouped and epoch-grouped health rollups disagree");
    }
    obs::HealthRollup reversed;
    for (auto it = result.shard_health.rbegin(); it != result.shard_health.rend();
         ++it) {
      reversed.merge(*it);
    }
    if (!same_integer_aggregates(result.health, reversed)) {
      violation("shard rollup merge is order-sensitive");
    }
    std::uint64_t outcome_total = 0;
    for (std::size_t i = 0; i < obs::kRoundOutcomeCount; ++i) {
      const auto outcome = static_cast<obs::RoundOutcome>(i);
      outcome_total += result.outcome_counts[i];
      if (result.outcome_counts[i] != result.health.outcome_count(outcome)) {
        violation("per-round outcome tally disagrees with health rollup for " +
                  std::string(obs::round_outcome_name(outcome)));
      }
    }
    if (outcome_total != result.rounds_resolved) {
      violation("outcome counts do not sum to rounds resolved");
    }

    // Hibernated stacks were folded as they went down; add the live ones.
    attest::StackCounters counters = hibernated_counters;
    for (const auto& stack : stacks) {
      if (stack) counters += stack->counters();
    }
    const sim::LinkCounters& links = counters.links;
    result.link_sent = links.sent;
    result.link_delivered = links.delivered;
    result.link_dropped = links.dropped;
    result.link_duplicated = links.duplicated;
    result.link_corrupted = links.corrupted;
    result.link_reordered = links.reordered;
    if (result.link_delivered !=
        result.link_sent - result.link_dropped + result.link_duplicated) {
      violation("link counter invariant delivered == sent - dropped + "
                "duplicated does not hold after drain");
    }

    result.makespan = any_started ? last_resolve - first_start : 0;
    result.rounds_per_sim_second =
        result.makespan == 0 ? 0.0
                             : static_cast<double>(result.rounds_resolved) /
                                   sim::to_seconds(result.makespan);

    // Full coverage: the epoch boundary by which every device had its
    // first round resolved (0 = some device never resolved one).
    if (!result.epoch_stats.empty() &&
        result.epoch_stats[0].resolved == config.devices &&
        result.epoch_stats[0].last_resolve.has_value()) {
      result.epochs_to_full_coverage = static_cast<std::size_t>(
          *result.epoch_stats[0].last_resolve / config.epoch_period) + 1;
    }

    if (config.metrics != nullptr) {
      attest::export_metrics(*config.metrics, counters, result.health);
      config.metrics->gauge("fleet.live_stacks_high_water")
          .set(static_cast<double>(result.live_stacks_high_water));
      config.metrics->gauge("fleet.hibernations")
          .set(static_cast<double>(result.hibernations));
      config.metrics->gauge("fleet.wakes").set(static_cast<double>(result.wakes));
      config.metrics->gauge("fleet.admission_events")
          .set(static_cast<double>(result.admission_events));
    }

    result.memory = memory_stats();

    // Shard golden roots and their fleet aggregate — the one digest a
    // higher-tier verifier would pin for this fleet's expected state.
    result.shard_tree_roots.reserve(shards.size());
    for (const ShardState& shard : shards) {
      result.shard_tree_roots.push_back(shard.golden->tree().root());
    }
    result.fleet_tree_root =
        mtree::MerkleTree::combine_roots(result.shard_tree_roots, config.hash);
  }

  FleetMemoryStats memory_stats() const {
    FleetMemoryStats stats;
    for (const ShardState& shard : shards) {
      // Image and key, the golden (with its own key copy), K_chal and the
      // cache.
      stats.shared_bytes += shard.image.capacity() + shard.key.capacity() +
                            sizeof(attest::GoldenMeasurement) +
                            shard.golden->block_count() * sizeof(attest::Digest) +
                            shard.golden->tree_memory_bytes() +
                            shard.key.capacity() + sizeof(crypto::HmacSha256Key) +
                            sizeof(attest::DigestCache) +
                            config.blocks * kDigestCacheSlotBytes;
    }
    std::size_t per_device = sizeof(DeviceRec) + config.epochs * sizeof(RoundRecord);
    if (hibernation) {
      // A hibernated device is its seed record, which owns no heap in
      // flat mode (a tree-mode proof backlog, 4 B per unacknowledged
      // block, is not charged); the full stack is charged to the bounded
      // pool below, not per device.
      per_device += sizeof(HibernatedDevice);
    } else {
      per_device += kLiveStackBytes;
    }
    stats.per_device_bytes = config.devices * per_device;
    if (hibernation) {
      // Pre-run the high-water is still 0; charge the configured cap so
      // the estimate is an honest a-priori budget, and the measured
      // high-water once it exceeds the cap (the cap is soft).
      const std::size_t pool_stacks =
          std::max({result.live_stacks_high_water, live_stacks,
                    std::min(config.max_live_stacks,
                             static_cast<std::size_t>(config.devices))});
      stats.pool_bytes = pool_stacks * kLiveStackBytes;
    }
    stats.roster_bytes = roster.memory_bytes();
    return stats;
  }

  FleetResult run() {
    if (ran) throw std::logic_error("FleetVerifier::run called twice");
    ran = true;
    result.devices = config.devices;
    result.epochs = config.epochs;
    result.shards = shard_map.shards;
    result.wave_size = wave;
    result.rounds.resize(config.devices * config.epochs);
    result.epoch_stats.resize(config.epochs);
    for (std::size_t e = 0; e < config.epochs; ++e) {
      const sim::Time start = static_cast<sim::Time>(e) * config.epoch_period;
      simulator.schedule_at(start, [this, start] { drip(start, 0); });
    }
    simulator.run();
    finalize();
    if (config.enforce_invariants && !result.invariant_violations.empty()) {
      std::string what = "fleet invariants violated:";
      for (const std::string& v : result.invariant_violations) what += "\n  " + v;
      throw std::logic_error(what);
    }
    return std::move(result);
  }
};

FleetVerifier::FleetVerifier(FleetConfig config)
    : FleetVerifier(config,
                    Roster::with_infected_fraction(
                        config.devices, config.infected_fraction,
                        detail::device_stream(config.seed, 0, kRosterSalt))) {}

FleetVerifier::FleetVerifier(FleetConfig config, Roster roster)
    : impl_(std::make_unique<Impl>(std::move(config), std::move(roster))) {}

FleetVerifier::~FleetVerifier() = default;

FleetResult FleetVerifier::run() { return impl_->run(); }

const Roster& FleetVerifier::roster() const noexcept { return impl_->roster; }
std::size_t FleetVerifier::shard_count() const noexcept {
  return impl_->shard_map.shards;
}
std::size_t FleetVerifier::shard_of(std::size_t device) const noexcept {
  return impl_->shard_of(device);
}
FleetMemoryStats FleetVerifier::memory_stats() const {
  return impl_->memory_stats();
}

std::vector<obs::RoundOutcome> replay_device(
    const FleetConfig& config, const Roster& roster, std::size_t device,
    const std::vector<sim::Time>& start_times) {
  if (device >= config.devices) {
    throw std::out_of_range("replay_device: device index out of range");
  }
  const std::size_t shard_index = detail::shard_map(config).shard_of(device);

  sim::Simulator simulator;
  // Fresh shard state: own golden, own digest cache (shared only with
  // itself) — cache hits are bit-identical to recomputation, so sharing
  // verifier state with fleet neighbors cannot change outcomes, and the
  // replay cross-check proves exactly that.
  FleetConfig replay_config = config;
  replay_config.metrics = nullptr;
  replay_config.journal = nullptr;
  ShardState shard = make_shard_state(replay_config, shard_index);
  DeviceStack stack(simulator);
  attest::StackConfig stack_config;
  stack.seat(stack_config, replay_config, shard, device);
  stack.provision(replay_config, roster.infected(device));

  std::vector<obs::RoundOutcome> outcomes;
  outcomes.reserve(start_times.size());
  // Chain rounds through the done callback (mirroring the fleet's
  // resolve-then-readmit pump) so a round whose recorded start coincides
  // with the previous round's resolve timestamp starts *after* that
  // resolution instead of hitting a busy session.
  std::function<void(std::size_t)> schedule_round = [&](std::size_t r) {
    if (r >= start_times.size()) return;
    simulator.schedule_at(start_times[r], [&, r] {
      stack.session.run([&, r](attest::RoundResult res) {
        outcomes.push_back(attest::session_outcome_rollup(res.outcome));
        schedule_round(r + 1);
      });
    });
  };
  schedule_round(0);
  simulator.run();
  return outcomes;
}

}  // namespace rasc::fleet
