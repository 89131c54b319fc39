#pragma once
/// \file campaign.hpp
/// Parallel Monte-Carlo campaign engine.  A campaign runs
/// `trials_per_point` independent trials for every cell of a ParamGrid
/// across a fixed-size worker pool, aggregating results streamingly.
///
/// Determinism contract: aggregates are bit-identical for any thread
/// count.  Two mechanisms provide this:
///  1. every trial's randomness comes from derive_trial_seed(base_seed,
///     grid_index, trial_index) — never from the executing thread;
///  2. trials are grouped into fixed-size shards (shard boundaries depend
///     only on shard_size, not on the thread count); workers reduce each
///     shard locally in trial order, and the shard aggregates are folded
///     in shard order after the pool drains.  Floating-point reduction
///     order is therefore a pure function of the spec.
///
/// Memory stays O(cells + shards): no per-trial storage survives the
/// shard that produced it.

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/grid.hpp"
#include "src/exp/seeding.hpp"
#include "src/exp/stats.hpp"
#include "src/obs/health.hpp"
#include "src/obs/metrics.hpp"

namespace rasc::obs {
class EventJournal;
}  // namespace rasc::obs

namespace rasc::exp {

/// Identity and RNG stream of one trial.  `rng` is pre-seeded from the
/// (base_seed, grid_index, trial_index) coordinates; trials needing more
/// than one generator can fork sub-streams from `seed` with mix64.
struct TrialContext {
  std::size_t grid_index = 0;
  std::size_t trial_index = 0;
  std::uint64_t seed = 0;
  support::Xoshiro256 rng;
  /// Flight recorder for a replayed trial (campaign_runner --journal-out);
  /// run_campaign leaves it null.  Trials that can record attach it to
  /// their simulation; the rest ignore it.
  obs::EventJournal* journal = nullptr;
};

/// What a trial records in its "first_misjudge_trial" value channel when
/// it misjudged nothing.  The cell's min() of that channel is then the
/// lowest misjudging trial index or this sentinel — an exact fold, so the
/// trial campaign_runner --journal-out replays (that one, else trial 0)
/// is the same for every thread count.
inline constexpr double kNoMisjudgeTrial = 1e18;

/// What one trial hands back to the aggregator.
struct TrialOutput {
  /// Bernoulli channel (escape / deadline-miss / detection rates).  A
  /// trial may contribute several attempts (e.g. one per sensor sample).
  std::uint64_t successes = 0;
  std::uint64_t attempts = 0;
  /// Named scalar observations, folded into per-cell StreamingMoments.
  std::vector<std::pair<std::string, double>> values;
  /// Optional per-trial metrics (histograms/counters) merged into the
  /// cell's registry; gauges resolve to the last trial in trial order.
  obs::MetricsRegistry metrics;
  /// Optional per-trial fleet health rollup, merged into the cell's
  /// rollup (associative, so the result is thread-count independent).
  obs::HealthRollup health;

  /// Record the outcome of a single Bernoulli experiment.
  void bernoulli(bool success) {
    ++attempts;
    if (success) ++successes;
  }
  void value(std::string name, double v) { values.emplace_back(std::move(name), v); }

  /// Assert a per-trial invariant (e.g. "every attestation round reached
  /// a terminal outcome").  A violation throws; run_campaign stops the
  /// pool and rethrows, so a broken invariant fails the campaign loudly
  /// instead of skewing its aggregates.
  void require(bool ok, const char* what) const {
    if (!ok) {
      throw std::runtime_error(std::string("trial invariant violated: ") + what);
    }
  }
};

using TrialFn = std::function<TrialOutput(const GridPoint&, TrialContext&)>;

struct CampaignResult;
struct CellResult;

/// One paper claim checked against a campaign's aggregates.
struct Claim {
  std::string label;
  bool ok = false;
};
using ClaimsFn = std::function<std::vector<Claim>(const CampaignResult&)>;

/// printf-style Claim constructor.
Claim claim(bool ok, const char* format, ...) __attribute__((format(printf, 2, 3)));
/// `holds` on every cell, labelled "<cell label>: <what>".
std::vector<Claim> claim_each_cell(const CampaignResult& result, const char* what,
                                   const std::function<bool(const CellResult&)>& holds);

struct CampaignSpec {
  std::string name = "campaign";
  ParamGrid grid;
  std::size_t trials_per_point = 100;
  std::uint64_t base_seed = 1;
  /// 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Trials per deterministic work unit.  Part of the reduction order, so
  /// changing it may perturb float aggregates in the last ulp — but any
  /// value yields the same aggregates for every thread count.
  std::size_t shard_size = 16;
  TrialFn trial;
  /// The claims the aggregates must satisfy (empty = none).
  /// campaign_runner prints each as [ok]/[FAIL] and exits 1 if any fails.
  ClaimsFn claims;
};

/// Aggregate over all trials of one grid cell.
struct CellResult {
  std::size_t grid_index = 0;
  GridPoint point;
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  std::uint64_t attempts = 0;
  /// successes / attempts (0 when no attempts were recorded).
  double success_rate = 0.0;
  WilsonInterval ci;
  std::map<std::string, StreamingMoments> values;
  obs::MetricsRegistry metrics;
  obs::HealthRollup health;
};

struct CampaignResult {
  std::string name;
  std::uint64_t base_seed = 0;
  std::size_t trials_per_point = 0;
  std::vector<CellResult> cells;
  /// Execution facts, deliberately excluded from the JSON artifact so a
  /// campaign's BENCH output is bit-identical across machines and -j.
  std::size_t threads_used = 0;
  double wall_seconds = 0.0;

  const CellResult* find_cell(const std::string& label) const;
};

/// Run the campaign.  Throws std::invalid_argument on a spec without a
/// trial function or with zero trials; rethrows the first trial exception
/// (after stopping the pool) otherwise.
CampaignResult run_campaign(const CampaignSpec& spec);

/// Shard-local streaming reduction, exposed for tests: fold `outputs` in
/// order into a fresh cell-shaped accumulator.  run_campaign composes
/// these with merge_cells in shard order.
namespace detail {

struct ShardAggregate {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  std::uint64_t attempts = 0;
  std::map<std::string, StreamingMoments> values;
  obs::MetricsRegistry metrics;
  obs::HealthRollup health;

  void fold(const TrialOutput& out);
  void merge(ShardAggregate&& other);
};

/// Merge `src` into `dst`: counters add, histograms bucket-merge (bounds
/// from first sight), gauges overwrite (last writer wins).
void merge_registry(obs::MetricsRegistry& dst, const obs::MetricsRegistry& src);

}  // namespace detail

}  // namespace rasc::exp
