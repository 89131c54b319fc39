#include "stats.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::vector<double> medians(const std::vector<std::vector<double>>& by_slot) {
  std::vector<double> out;
  out.reserve(by_slot.size());
  for (const std::vector<double>& slot : by_slot) out.push_back(median(slot));
  return out;
}

TailStat tail(std::vector<double> samples) {
  TailStat t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (std::uint32_t tenths : kTailLadderTenths) {
    // Nearest rank: k = ceil(p * n), 1-based.
    const std::size_t k = (static_cast<std::size_t>(tenths) * n + 999) / 1000;
    if (k == 0 || k > n) continue;
    if (n - k >= kTailMinBeyond) {
      t.value = samples[k - 1];
      t.percentile = static_cast<double>(tenths) / 10.0;
      t.beyond = n - k;
      t.rule_met = true;
      return t;
    }
  }
  t.value = samples.back();
  t.percentile = 100.0;
  t.beyond = 0;
  return t;
}

std::string describe(const TailStat& t) {
  char buf[128];
  if (t.rule_met) {
    std::snprintf(buf, sizeof buf, "p%g of %zu samples (%zu beyond)", t.percentile,
                  t.samples, t.beyond);
  } else {
    std::snprintf(buf, sizeof buf, "max of %zu samples (too few for a percentile)",
                  t.samples);
  }
  return buf;
}

}  // namespace perfbench
