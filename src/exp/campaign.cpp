#include "src/exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace rasc::exp {

namespace detail {

void merge_registry(obs::MetricsRegistry& dst, const obs::MetricsRegistry& src) {
  for (const auto& [name, c] : src.counters()) dst.counter(name).inc(c.value());
  for (const auto& [name, g] : src.gauges()) dst.gauge(name).set(g.value());
  for (const auto& [name, h] : src.histograms()) {
    dst.histogram(name, h->bounds()).merge(*h);
  }
}

void ShardAggregate::fold(const TrialOutput& out) {
  ++trials;
  successes += out.successes;
  attempts += out.attempts;
  for (const auto& [name, v] : out.values) values[name].add(v);
  merge_registry(metrics, out.metrics);
  health.merge(out.health);
}

void ShardAggregate::merge(ShardAggregate&& other) {
  trials += other.trials;
  successes += other.successes;
  attempts += other.attempts;
  for (auto& [name, moments] : other.values) values[name].merge(moments);
  merge_registry(metrics, other.metrics);
  health.merge(other.health);
}

}  // namespace detail

Claim claim(bool ok, const char* format, ...) {
  char label[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(label, sizeof(label), format, args);
  va_end(args);
  return {label, ok};
}

std::vector<Claim> claim_each_cell(const CampaignResult& result, const char* what,
                                   const std::function<bool(const CellResult&)>& holds) {
  std::vector<Claim> claims;
  for (const CellResult& cell : result.cells) {
    claims.push_back({cell.point.label() + ": " + what, holds(cell)});
  }
  return claims;
}

const CellResult* CampaignResult::find_cell(const std::string& label) const {
  for (const auto& cell : cells) {
    if (cell.point.label() == label) return &cell;
  }
  return nullptr;
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  if (!spec.trial) throw std::invalid_argument("run_campaign: spec.trial is empty");
  if (spec.trials_per_point == 0) {
    throw std::invalid_argument("run_campaign: trials_per_point must be positive");
  }
  if (spec.shard_size == 0) {
    throw std::invalid_argument("run_campaign: shard_size must be positive");
  }

  const std::size_t cells = spec.grid.size();
  // Rounded up without the wrap of (trials + shard_size - 1).
  const std::size_t shards_per_cell = spec.trials_per_point / spec.shard_size +
                                      (spec.trials_per_point % spec.shard_size != 0);
  if (shards_per_cell > std::vector<detail::ShardAggregate>().max_size() / cells) {
    throw std::invalid_argument("run_campaign: " + std::to_string(spec.trials_per_point) +
                                " trials per point need more shards than a shard table holds");
  }
  const std::size_t total_shards = cells * shards_per_cell;

  // Shard slots are written by exactly one worker each (disjoint indices
  // claimed via the atomic cursor), then read only after the pool joins.
  std::vector<detail::ShardAggregate> shards(total_shards);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto worker = [&] {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t shard = cursor.fetch_add(1, std::memory_order_relaxed);
      if (shard >= total_shards) return;
      const std::size_t grid_index = shard / shards_per_cell;
      const std::size_t lo = (shard % shards_per_cell) * spec.shard_size;
      const std::size_t hi = std::min(lo + spec.shard_size, spec.trials_per_point);
      const GridPoint point = spec.grid.point(grid_index);
      try {
        for (std::size_t t = lo; t < hi; ++t) {
          TrialContext ctx;
          ctx.grid_index = grid_index;
          ctx.trial_index = t;
          ctx.seed = derive_trial_seed(spec.base_seed, grid_index, t);
          ctx.rng = support::Xoshiro256(ctx.seed);
          shards[shard].fold(spec.trial(point, ctx));
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::size_t threads = spec.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, total_shards);

  const auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  if (first_error) std::rethrow_exception(first_error);

  CampaignResult result;
  result.name = spec.name;
  result.base_seed = spec.base_seed;
  result.trials_per_point = spec.trials_per_point;
  result.threads_used = threads;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.cells.reserve(cells);
  // Deterministic reduction: shards fold in shard order within each cell,
  // independent of which worker produced them.
  for (std::size_t g = 0; g < cells; ++g) {
    detail::ShardAggregate acc;
    for (std::size_t s = 0; s < shards_per_cell; ++s) {
      acc.merge(std::move(shards[g * shards_per_cell + s]));
    }
    CellResult cell;
    cell.grid_index = g;
    cell.point = spec.grid.point(g);
    cell.trials = acc.trials;
    cell.successes = acc.successes;
    cell.attempts = acc.attempts;
    cell.success_rate = acc.attempts == 0 ? 0.0
                                          : static_cast<double>(acc.successes) /
                                                static_cast<double>(acc.attempts);
    cell.ci = wilson_interval(acc.successes, acc.attempts);
    cell.values = std::move(acc.values);
    cell.metrics = std::move(acc.metrics);
    cell.health = std::move(acc.health);
    result.cells.push_back(std::move(cell));
  }
  return result;
}

}  // namespace rasc::exp
