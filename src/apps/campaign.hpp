#pragma once
/// \file campaign.hpp
/// Application-scenario campaigns for the exp engine.
///
/// fire_alarm: Monte-Carlo over the Section 2.5 conflict.  Each trial
/// drops the fire at a uniformly random offset inside the measurement
/// window and reports per-sample deadline misses (Bernoulli channel) plus
/// alarm latency / measurement duration scalars, swept over execution
/// mode x modeled memory size.
///
/// lock_matrix: Table 1 as a statistical experiment.  Each trial runs one
/// attestation round under a locking mechanism x adversary cell; the
/// Bernoulli channel is "the verifier detected the malware", with writer
/// availability as a scalar.

#include "src/apps/scenario.hpp"
#include "src/exp/campaign.hpp"

namespace rasc::apps {

struct FireAlarmCampaignOptions {
  std::size_t trials = 100;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// Prover-side digest cache (host wall-clock optimization).  Exposed so
  /// tests can assert cached == uncached aggregates byte-for-byte.
  bool use_digest_cache = true;
};

exp::CampaignSpec make_fire_alarm_campaign(const FireAlarmCampaignOptions& options = {});

struct LockMatrixCampaignOptions {
  std::size_t trials = 50;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
};

exp::CampaignSpec make_lock_matrix_campaign(const LockMatrixCampaignOptions& options = {});

struct MeasurementCacheCampaignOptions {
  std::size_t trials = 40;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
};

/// Dirty-fraction sweep for the generation-keyed digest cache: each trial
/// measures a device, dirties `dirty_pct`% of its blocks, then re-measures
/// with and without the cache.  Bernoulli channel = "cached and uncached
/// measurements are byte-identical" (must be 1.0); scalar channels count
/// cache hits against the expected clean-block count.  All values are
/// deterministic — host wall-clock never enters the aggregates.
exp::CampaignSpec make_measurement_cache_campaign(
    const MeasurementCacheCampaignOptions& options = {});

struct MtreeCampaignOptions {
  std::size_t trials = 40;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
};

/// Tree-mode attestation sweep (spec name "mtree", artifact
/// BENCH_mtree.json): dirty_pct x infected over a Merkle-tree prover.
/// Healthy trials churn dirty_pct% of the blocks by rewriting their own
/// bytes — generations bump and the tree re-hashes those leaves, but every
/// digest is unchanged, so the round must stay Verified.  Infected trials
/// additionally patch a known contiguous block range; the Bernoulli
/// channel is "the verifier's localized range is exactly the infected
/// range" (healthy: "the round verified"), which must hold in every trial.
/// All values are deterministic — identical aggregates for any --threads.
exp::CampaignSpec make_mtree_campaign(const MtreeCampaignOptions& options = {});

struct NetworkReliabilityCampaignOptions {
  std::size_t trials = 100;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  /// Sequential attestation rounds per trial.
  std::size_t rounds = 4;
};

/// Lossy-link reliability sweep (spec name "network", so the artifact is
/// BENCH_network.json): drop_pct x retry budget x per-attempt timeout,
/// over a *healthy* prover with mild background duplication/reordering/
/// corruption.  Bernoulli channel = per-round false positive (healthy
/// device judged anything but Verified); scalars price the reliability
/// machinery (attempts per round, backoff, wasted prover CPU time on
/// measurements whose reports never decided a round).  Every trial
/// asserts that all rounds reached a terminal outcome — a leaked `done`
/// callback fails the campaign rather than skewing it.
exp::CampaignSpec make_network_reliability_campaign(
    const NetworkReliabilityCampaignOptions& options = {});

}  // namespace rasc::apps
