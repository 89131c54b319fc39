#include "src/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/obs/json.hpp"

namespace rasc::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: bounds must be non-empty");
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

std::vector<double> Histogram::exponential_bounds(double first, double factor,
                                                  std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double edge = first;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::default_latency_bounds_ms() {
  // 1 us .. ~1e6 ms in half-decade steps: 19 edges.
  return exponential_bounds(1e-3, 3.1622776601683795, 19);
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument("Histogram::merge: mismatched bounds");
  }
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t prev = cum;
    cum += buckets_[i];
    if (static_cast<double>(cum) < target) continue;
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double upper = i < bounds_.size() ? bounds_[i] : max_;
    const double pos = (target - static_cast<double>(prev)) /
                       static_cast<double>(buckets_[i]);
    const double value = lower + pos * (upper - lower);
    return std::clamp(value, min_, max_);
  }
  return max_;
}

Counter& MetricsRegistry::counter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds_ms();
    it = histograms_.emplace(name, std::make_unique<Histogram>(std::move(bounds))).first;
  }
  return *it->second;
}

void MetricsRegistry::add(const std::string& name, std::uint64_t n) {
  if (n != 0) counter(name).inc(n);
}

void MetricsRegistry::add(const std::string& name, const Histogram& h) {
  if (h.count() != 0) histogram(name, h.bounds()).merge(h);
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object();

  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name);
    w.uint_value(c.value());
  }
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name);
    w.number_value(g.value());
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.uint_value(h->count());
    w.key("sum");
    w.number_value(h->sum());
    w.key("min");
    w.number_value(h->min());
    w.key("max");
    w.number_value(h->max());
    w.key("mean");
    w.number_value(h->mean());
    w.key("p50");
    w.number_value(h->percentile(50));
    w.key("p95");
    w.number_value(h->percentile(95));
    w.key("p99");
    w.number_value(h->percentile(99));
    w.key("bounds");
    w.begin_array();
    for (double b : h->bounds()) w.number_value(b);
    w.end_array();
    w.key("buckets");
    w.begin_array();
    for (std::uint64_t c : h->bucket_counts()) w.uint_value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.end_object();
  return w.str();
}

}  // namespace rasc::obs
