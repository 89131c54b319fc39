#pragma once
/// \file metrics.hpp
/// Aggregated metrics: counters, gauges and fixed-bucket histograms with
/// percentile extraction.  A MetricsRegistry renders as JSON, so every
/// bench can dump its results as BENCH_<name>.json (see bench_io.hpp) and
/// every scenario can account per-phase latencies the way the paper's
/// timelines do.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rasc::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram.  `bounds` are ascending bucket upper edges; an
/// implicit overflow bucket catches everything above the last bound.
///
/// percentile(p) walks the cumulative counts to the bucket containing
/// rank p/100 * count and interpolates linearly inside it (lower edge =
/// previous bound, or 0 for the first bucket; upper edge = the bound, or
/// the observed max for the overflow bucket).  The result is clamped to
/// [min, max] of the observed samples; an empty histogram returns 0.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Geometric bucket edges: first, first*factor, ... (`count` edges).
  static std::vector<double> exponential_bounds(double first, double factor,
                                                std::size_t count);
  /// Default edges for latencies in milliseconds: 1 us .. ~1000 s.
  static std::vector<double> default_latency_bounds_ms();

  void record(double v);
  /// Fold another histogram into this one (bucket-wise).  Both must have
  /// identical bounds; throws std::invalid_argument otherwise.
  void merge(const Histogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double percentile(double p) const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const noexcept { return buckets_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named metrics, deterministically ordered.  Accessors create on first
/// use; a histogram's bucket bounds are fixed by its first accessor call.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  /// Publish a count kept elsewhere: add `n` to counter `name`, or fold
  /// `h` into histogram `name` (on h's bounds).  A zero count creates
  /// nothing, so a metric appears exactly when counting it live would have
  /// created it.
  void add(const std::string& name, std::uint64_t n);
  void add(const std::string& name, const Histogram& h);

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Ordered iteration, e.g. for merging registries across Monte-Carlo
  /// trials (see exp::detail::merge_registry).
  const std::map<std::string, Counter>& counters() const noexcept { return counters_; }
  const std::map<std::string, Gauge>& gauges() const noexcept { return gauges_; }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const noexcept {
    return histograms_;
  }

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// {"counters":{..},"gauges":{..},"histograms":{name:{count,sum,min,max,
  ///  mean,p50,p95,p99,bounds,buckets}}}
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rasc::obs
