#pragma once
/// \file bench.hpp
/// What every workload receives and hands back.  A workload generates its
/// inputs from the seed, sets up, runs closed-loop for `seconds`, checks
/// its simulated outputs and reports metrics by name.  Host time never
/// enters the fingerprint: it covers simulated statistics only.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span dump ("" = do not write).
  std::string trace_path;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< rounds (or trials) attempted
  std::uint64_t failed = 0;     ///< unresolved rounds + failed correctness checks
  std::vector<std::string> failures;  ///< one line per failed check
  std::map<std::string, MetricValue> metrics;
  std::vector<std::string> notes;     ///< human-readable lines printed before the JSON
  /// Fingerprint of the simulated statistics of the first repetition.
  std::string fingerprint;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = MetricValue{value, unit};
  }
  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// FNV-1a over a canonical text rendering of simulated statistics.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    char buf[24];
    const int n = std::snprintf(buf, sizeof buf, "%llu;", static_cast<unsigned long long>(v));
    mix(buf, static_cast<std::size_t>(n));
  }
  void add(const std::string& s) {
    mix(s.data(), s.size());
    mix(";", 1);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(p[i]);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

RunResult run_fleet_lossy(const RunOptions& options);
RunResult run_device_churn(const RunOptions& options);
RunResult run_table1_writer(const RunOptions& options);

/// Fingerprint of one table1_writer campaign repetition at `threads`.
std::string table1_fingerprint(std::uint64_t seed, std::size_t threads);

}  // namespace perfbench
