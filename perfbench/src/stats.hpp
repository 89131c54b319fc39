#pragma once
/// \file stats.hpp
/// Order statistics the benchmark reports: the median, and the tail rule —
/// the highest percentile of a fixed ladder that still has at least ten
/// samples beyond it.  (Run-to-run quartiles and spread are computed by
/// steadiness.py.)

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for even n); 0 for
/// an empty input.
double median(std::vector<double> samples);

/// The median of each slot's samples.  A workload that runs a fixed
/// schedule of rounds over and over reports one sample per scheduled round
/// this way: a stall of the host that hits a minority of a round's
/// repetitions does not move it, a round that got slower does.
std::vector<double> medians(const std::vector<std::vector<double>>& by_slot);

/// Percentile ladder for the tail, in tenths of a percent, highest first.
/// It stops at p99: a p99.9 estimated from one 30 s run rests on its ~20
/// slowest rounds and moves with every stall of a shared host.
inline constexpr std::array<std::uint32_t, 3> kTailLadderTenths = {990, 900, 500};
/// Samples that must lie beyond the reported tail percentile.
inline constexpr std::size_t kTailMinBeyond = 10;

struct TailStat {
  double value = 0.0;
  double percentile = 100.0;  ///< e.g. 99.0; 100 = maximum (rule not met)
  std::size_t samples = 0;
  std::size_t beyond = 0;     ///< samples ranked above the reported one
  bool rule_met = false;      ///< some ladder step kept >= kTailMinBeyond beyond
};

/// Nearest-rank value at the highest ladder percentile p with
/// n - ceil(p * n) >= kTailMinBeyond.  With too few samples for any step
/// the maximum is reported as percentile 100 and rule_met is false.
TailStat tail(std::vector<double> samples);

/// "p99 of 4213 samples (42 beyond)" — the label printed beside a tail.
std::string describe(const TailStat& t);

}  // namespace perfbench
