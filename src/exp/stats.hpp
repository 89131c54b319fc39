#pragma once
/// \file stats.hpp
/// Streaming statistical aggregation for Monte-Carlo campaigns: Welford
/// single-pass moments with Chan's parallel merge, and Wilson score
/// confidence intervals for Bernoulli outcomes (escape / deadline-miss
/// rates).  Everything here is deterministic given a fixed merge order —
/// the campaign engine guarantees that order is independent of thread
/// count.

#include <cstdint>

namespace rasc::exp {

/// Single-pass mean/variance/min/max accumulator (Welford).  merge() uses
/// Chan's pairwise-combination formula, so shard-local accumulators can be
/// folded together after the fact without revisiting samples.
class StreamingMoments {
 public:
  void add(double x) noexcept;
  void merge(const StreamingMoments& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  double sum() const noexcept;
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean: stddev / sqrt(n); 0 for fewer than 2.
  double stderror() const noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Two-sided confidence interval for a binomial proportion.
struct WilsonInterval {
  double lower = 0.0;
  double upper = 1.0;
  bool contains(double p) const noexcept { return p >= lower && p <= upper; }
};

/// z of a two-sided 99.9% interval.  Closed-form claims test the analytic
/// value against it rather than the reported 95% interval, so a sweep of
/// ~24 simultaneous cells passes jointly for any seed.
inline constexpr double kClaimZ = 3.290526731491926;

/// Wilson score interval for `successes` out of `trials` at critical value
/// `z` (default 1.96 ~ 95%).  Exact endpoints at the boundaries: 0
/// successes gives lower == 0, all successes gives upper == 1.  With
/// trials == 0 the interval is the vacuous [0, 1].
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z = 1.959963984540054);

}  // namespace rasc::exp
