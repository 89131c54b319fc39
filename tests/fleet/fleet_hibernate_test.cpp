/// Hibernation-tier property tests: a fleet that tears quiescent device
/// stacks down to HibernatedDevice seed records (bounded live pool) and
/// admits devices in shard waves must be *observably identical* to the
/// all-resident, per-device-drip fleet — same verdicts, same filtered
/// journal bytes, same health aggregates, same link counters — because a
/// rebuilt stack resumes the exact rng/session/verifier/link state the
/// torn-down stack saved.  These are the ISSUE-10 equivalence suites.

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <cstddef>
// libasan's allocator statistics (sanitizer/allocator_interface.h).
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#elif defined(__GLIBC__)
#include <malloc.h>
#endif

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/fleet/fleet.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "tests/support/fleet_fixtures.hpp"

namespace rasc::fleet {
namespace {

using testfx::fast_fleet_config;

/// Chaos-grade link faults so retries, duplicates and corrupt reports all
/// cross hibernation boundaries, not just clean rounds.
FleetConfig faulty_config(std::size_t devices, std::uint64_t seed) {
  FleetConfig config = fast_fleet_config(devices, seed);
  config.drop_probability = 0.15;
  config.duplicate_probability = 0.08;
  config.corrupt_probability = 0.05;
  config.reorder_probability = 0.08;
  config.infected_fraction = 0.15;
  config.session.max_attempts = 4;
  config.epochs = 3;
  return config;
}

/// Drop journal lines the hibernation machinery itself emits; everything
/// else must be byte-identical between a persistent and a hibernating run.
std::string strip_fleet_events(const std::string& ndjson) {
  std::istringstream in(ndjson);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"fleet.") == std::string::npos) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

/// Every exported counter and histogram of two registries, by name.  The
/// fleet.* gauges are left out: they describe the pool, which differs by
/// design.
void expect_same_counts(const obs::MetricsRegistry& a, const obs::MetricsRegistry& b) {
  std::map<std::string, std::uint64_t> counters_a, counters_b;
  for (const auto& [name, c] : a.counters()) counters_a[name] = c.value();
  for (const auto& [name, c] : b.counters()) counters_b[name] = c.value();
  EXPECT_EQ(counters_a, counters_b);
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, h] : a.histograms()) {
    const obs::Histogram* other = b.find_histogram(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(h->bucket_counts(), other->bucket_counts()) << name;
    EXPECT_EQ(h->sum(), other->sum()) << name;
    EXPECT_EQ(h->min(), other->min()) << name;
    EXPECT_EQ(h->max(), other->max()) << name;
  }
}

void expect_equivalent(const FleetConfig& base, std::size_t pool,
                       const char* label) {
  obs::EventJournal persistent_journal;
  obs::EventJournal hibernating_journal;
  obs::MetricsRegistry persistent_metrics;
  obs::MetricsRegistry hibernating_metrics;

  FleetConfig persistent = base;
  persistent.journal = &persistent_journal;
  persistent.metrics = &persistent_metrics;
  FleetConfig hibernating = base;
  hibernating.max_live_stacks = pool;
  hibernating.journal = &hibernating_journal;
  hibernating.metrics = &hibernating_metrics;

  const FleetResult a = FleetVerifier(persistent).run();
  const FleetResult b = FleetVerifier(hibernating).run();
  SCOPED_TRACE(label);
  EXPECT_TRUE(testfx::fleet_fully_resolved(a));
  EXPECT_TRUE(testfx::fleet_fully_resolved(b));

  // Hibernation actually happened (otherwise this test is vacuous).
  EXPECT_GT(b.hibernations, 0u);
  EXPECT_GT(b.wakes, 0u);
  EXPECT_EQ(a.hibernations, 0u);
  EXPECT_LT(b.live_stacks_high_water, base.devices);

  // Verdict identity, round for round.
  ASSERT_EQ(a.devices, b.devices);
  ASSERT_EQ(a.epochs, b.epochs);
  for (std::size_t d = 0; d < a.devices; ++d) {
    for (std::size_t e = 0; e < a.epochs; ++e) {
      const RoundRecord& ra = a.round(d, e);
      const RoundRecord& rb = b.round(d, e);
      ASSERT_EQ(ra.outcome, rb.outcome) << "device " << d << " epoch " << e;
      EXPECT_EQ(ra.attempts, rb.attempts) << "device " << d << " epoch " << e;
      EXPECT_EQ(ra.started, rb.started) << "device " << d << " epoch " << e;
      EXPECT_EQ(ra.localized_ranges, rb.localized_ranges);
      EXPECT_EQ(ra.localized_first, rb.localized_first);
      EXPECT_EQ(ra.localized_count, rb.localized_count);
    }
  }
  EXPECT_EQ(a.misjudged_rounds, b.misjudged_rounds);
  EXPECT_EQ(a.makespan, b.makespan);

  // Health rollup integer aggregates.
  EXPECT_EQ(a.health.rounds(), b.health.rounds());
  for (std::size_t i = 0; i < obs::kRoundOutcomeCount; ++i) {
    const auto outcome = static_cast<obs::RoundOutcome>(i);
    EXPECT_EQ(a.health.outcome_count(outcome), b.health.outcome_count(outcome));
  }

  // Link counters (a stack's counters are folded into the fleet totals
  // as it hibernates, so the totals must match exactly).
  EXPECT_EQ(a.link_sent, b.link_sent);
  EXPECT_EQ(a.link_delivered, b.link_delivered);
  EXPECT_EQ(a.link_dropped, b.link_dropped);
  EXPECT_EQ(a.link_duplicated, b.link_duplicated);
  EXPECT_EQ(a.link_corrupted, b.link_corrupted);
  EXPECT_EQ(a.link_reordered, b.link_reordered);

  // The exported net.*, session.* and verifier.* counts and histograms
  // fold the same way; the faulty links make every family nonzero.
  for (const char* name : {"net.sent", "net.corrupted", "session.rounds",
                           "session.retries", "session.attempt_timeouts",
                           "verifier.verify_total", "verifier.fail_mac"}) {
    EXPECT_NE(persistent_metrics.find_counter(name), nullptr) << name;
  }
  EXPECT_NE(persistent_metrics.find_histogram("session.round_latency_ms"), nullptr);
  expect_same_counts(persistent_metrics, hibernating_metrics);

  // Journal byte-identity once the hibernate/wake bookkeeping lines are
  // stripped: every protocol, link, cache and mtree event of every round
  // fires at the same time with the same payload.
  EXPECT_EQ(strip_fleet_events(persistent_journal.to_ndjson()),
            strip_fleet_events(hibernating_journal.to_ndjson()));
}

TEST(HibernatingFleet, FlatModeMatchesPersistentRunExactly) {
  expect_equivalent(faulty_config(40, 91), 4, "flat pool=4");
}

TEST(HibernatingFleet, TreeModeMatchesPersistentRunExactly) {
  FleetConfig config = faulty_config(32, 92);
  config.use_merkle_tree = true;
  expect_equivalent(config, 3, "tree pool=3");
}

TEST(HibernatingFleet, SingleStackPoolStillResolvesEverything) {
  // Degenerate pool: at most ~1 idle stack survives between rounds, so
  // nearly every admission is a wake.  Liveness must not depend on the cap.
  expect_equivalent(faulty_config(24, 93), 1, "flat pool=1");
}

TEST(HibernatingFleet, StandaloneReplayReproducesHibernatedVerdicts) {
  // Chaos cross-check: replay each device alone (persistent stack, fresh
  // simulator) against the hibernating fleet's recorded verdicts.
  FleetConfig config = faulty_config(24, 94);
  config.max_live_stacks = 2;
  FleetVerifier fleet(config);
  const Roster roster = fleet.roster();
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  EXPECT_GT(result.hibernations, 0u);
  for (std::size_t d = 0; d < result.devices; ++d) {
    const std::vector<obs::RoundOutcome> replayed =
        replay_device(config, roster, d, result.start_times(d));
    ASSERT_EQ(replayed.size(), result.epochs);
    for (std::size_t e = 0; e < result.epochs; ++e) {
      EXPECT_EQ(replayed[e], result.round(d, e).outcome)
          << "device " << d << " epoch " << e;
    }
  }
}

TEST(HibernatingFleet, PoolStaysBoundedOnCleanLinks) {
  // On clean links a stack is quiescent the moment its round resolves, so
  // the pool can only hold the soft cap plus the admission window.
  FleetConfig config = fast_fleet_config(32, 95);
  config.max_in_flight = 2;
  config.max_live_stacks = 3;
  const FleetResult result = FleetVerifier(config).run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  EXPECT_GT(result.hibernations, 0u);
  EXPECT_LE(result.live_stacks_high_water,
            config.max_live_stacks + config.max_in_flight);
}

// -- shard-wave admission batching -------------------------------------------

TEST(WaveAdmission, AutoWaveKeepsVerdictsAndCutsSchedulerEvents) {
  // 1000 devices: auto wave ≈ 15, so the dripper should fire ~devices/15
  // times per epoch instead of ~devices.  Outcomes must be identical —
  // per-device streams are admission-time independent.
  FleetConfig base = fast_fleet_config(1000, 96);
  base.drop_probability = 0.1;
  base.infected_fraction = 0.05;

  FleetConfig legacy = base;
  legacy.wave_size = 1;
  FleetConfig waved = base;
  waved.wave_size = 0;  // auto

  const FleetResult a = FleetVerifier(legacy).run();
  const FleetResult b = FleetVerifier(waved).run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(a));
  EXPECT_TRUE(testfx::fleet_fully_resolved(b));
  EXPECT_EQ(a.wave_size, 1u);
  EXPECT_GT(b.wave_size, 1u);

  for (std::size_t d = 0; d < a.devices; ++d) {
    for (std::size_t e = 0; e < a.epochs; ++e) {
      ASSERT_EQ(a.round(d, e).outcome, b.round(d, e).outcome)
          << "device " << d << " epoch " << e;
      EXPECT_EQ(a.round(d, e).attempts, b.round(d, e).attempts);
    }
  }
  EXPECT_EQ(a.misjudged_rounds, b.misjudged_rounds);

  // Scheduler pressure: ISSUE-10 requires at least a 5x cut.
  EXPECT_GT(a.admission_events, 0u);
  EXPECT_GT(b.admission_events, 0u);
  EXPECT_GE(a.admission_events, 5 * b.admission_events)
      << "wave batching did not reduce scheduler events enough: "
      << a.admission_events << " -> " << b.admission_events;
}

TEST(WaveAdmission, WavesNeverCrossShardBoundaries) {
  // 4 shards x 8 devices with an oversized wave request: each wave must
  // clip at its shard boundary, so shard-phased epoch-0 start times still
  // align per shard.
  FleetConfig config = fast_fleet_config(32, 97);
  config.shards = 4;
  config.wave_size = 1000;  // clipped to the 8-device shard
  config.stagger = StaggerPolicy::kShardPhased;
  config.max_in_flight = 0;
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  FleetVerifier probe(config);
  for (std::size_t d = 0; d < result.devices; ++d) {
    const std::size_t shard = probe.shard_of(d);
    EXPECT_EQ(result.round(d, 0).started, result.round(shard * 8, 0).started)
        << "device " << d << " shard " << shard;
  }
}

// -- epoch stats sentinel ------------------------------------------------------

TEST(EpochStats, FirstStartAndLastResolveCarryExplicitPresence) {
  // Burst admission starts epoch 0 at t=0: under the old 0-means-unset
  // encoding that first_start was indistinguishable from "never started".
  FleetConfig config = fast_fleet_config(8, 98);
  config.stagger = StaggerPolicy::kBurst;
  const FleetResult result = FleetVerifier(config).run();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  ASSERT_TRUE(result.epoch_stats[0].first_start.has_value());
  ASSERT_TRUE(result.epoch_stats[0].last_resolve.has_value());
  EXPECT_EQ(*result.epoch_stats[0].first_start, 0u);
  EXPECT_GT(*result.epoch_stats[0].last_resolve, 0u);
  EXPECT_TRUE(EpochStats{}.first_start == std::nullopt);
  EXPECT_TRUE(EpochStats{}.last_resolve == std::nullopt);
}

// -- memory estimator ---------------------------------------------------------

TEST(FleetMemory, HibernationShrinksTheEstimateAndBoundsPerDeviceCost) {
  FleetConfig persistent = fast_fleet_config(5000, 101);
  FleetConfig hibernating = persistent;
  hibernating.max_live_stacks = 64;
  // memory_stats() is a pure function of the config (pool high-water only
  // grows it later), so probing pre-run is valid — and with lazy stack
  // construction, cheap even for huge fleets.
  const FleetMemoryStats full = FleetVerifier(persistent).memory_stats();
  const FleetMemoryStats slim = FleetVerifier(hibernating).memory_stats();
  EXPECT_LT(slim.total_bytes(), full.total_bytes());
  EXPECT_LT(slim.per_device_bytes, full.per_device_bytes);
  EXPECT_GT(slim.pool_bytes, 0u);
  EXPECT_EQ(full.pool_bytes, 0u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__GLIBC__)
TEST(FleetMemory, EstimateTracksMeasuredAllocations) {
  // Ground the estimator against the allocator: the heap growth from
  // building and running a hibernating fleet must be within a small
  // constant factor of memory_stats().  Generous bounds — the point is
  // catching order-of-magnitude lies (e.g. charging size() where the
  // container kept capacity()), not bytes.  ASan replaces glibc's
  // allocator, so mallinfo2() reads 0 there; ask ASan's allocator instead.
  const auto live_bytes = []() -> std::size_t {
#if defined(__SANITIZE_ADDRESS__)
    return __sanitizer_get_current_allocated_bytes();
#else
    return static_cast<std::size_t>(mallinfo2().uordblks);
#endif
  };
  FleetConfig config = fast_fleet_config(2000, 102);
  config.max_live_stacks = 64;
  const std::size_t before = live_bytes();
  FleetVerifier fleet(config);
  const FleetResult result = fleet.run();
  const std::size_t after = live_bytes();
  EXPECT_TRUE(testfx::fleet_fully_resolved(result));
  ASSERT_GT(after, before);
  const std::size_t measured = after - before;
  const std::size_t estimate = result.memory.total_bytes();
  EXPECT_GE(estimate, measured / 6)
      << "estimate " << estimate << " vs measured " << measured;
  EXPECT_LE(estimate, measured * 6)
      << "estimate " << estimate << " vs measured " << measured;
}
#endif

}  // namespace
}  // namespace rasc::fleet
