// perfbench: host-time benchmark program for rasc.
//
//   perfbench --workload <fleet_lossy|device_churn|table1_writer> --seed N
//             --seconds S --trace <0|1> [--trace-out FILE] [--fingerprints FILE]
//
// Prints one line per metric (name, value, unit), the notes of the run,
// and as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness check failed, 2 on a usage error.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "metrics.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fleet_lossy|device_churn|"
               "table1_writer> --seed N --seconds S --trace <0|1> [--trace-out FILE] "
               "[--fingerprints FILE]\n",
               why);
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Recorded fingerprint for (workload, seed), or "" when none is recorded.
/// File format: one "<workload> <seed> <hex>" per line, '#' comments.
std::string recorded_fingerprint(const std::string& path, const std::string& workload,
                                 std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w;
    std::uint64_t s = 0;
    std::string hex;
    if (fields >> w >> s >> hex && w == workload && s == seed) return hex;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string fingerprints;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = o.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      o.trace_path = value;
    } else if (arg == "--fingerprints") {
      fingerprints = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }

  RunResult r;
  if (o.workload == "fleet_lossy") {
    r = perfbench::run_fleet_lossy(o);
  } else if (o.workload == "device_churn") {
    r = perfbench::run_device_churn(o);
  } else if (o.workload == "table1_writer") {
    r = perfbench::run_table1_writer(o);
  } else {
    return usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!o.trace) r.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (!fingerprints.empty()) {
    const std::string want = recorded_fingerprint(fingerprints, o.workload, o.seed);
    if (!want.empty() && want != r.fingerprint) {
      r.fail("simulated statistics fingerprint " + r.fingerprint + " != recorded " + want);
    }
  }

  std::string json = "{\"correct\": " + std::string(r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](std::string_view name, std::string_view unit) {
    const auto it = r.metrics.find(std::string(name));
    const double value = it == r.metrics.end() ? 0.0 : it->second.value;
    std::printf("%-36s %-.10g %s\n", std::string(name).c_str(), value,
                std::string(unit).c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (first ? "\"" : ", \"") + std::string(name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + std::string(unit) + "\"}";
    first = false;
  };
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& f : r.failures) std::printf("# FAILED: %s\n", f.c_str());
  std::printf("# workload %s seed %llu: fingerprint %s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), r.fingerprint.c_str());
  std::printf("%-36s %-.10g ratio\n", "failed_frac",
              r.attempted == 0 ? 1.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted));
  if (o.trace) {
    for (const auto& m : perfbench::kPerLayer) emit(m.name, m.unit);
  } else {
    for (const auto& m : perfbench::kEndToEnd) emit(m.name, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
