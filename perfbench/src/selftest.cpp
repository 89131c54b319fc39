// Self-test of the benchmark's own code: the median, the tail rule, span
// accounting, the host probe's scaling and fingerprint determinism
// (test_steadiness.py covers the
// quartiles and spread).  Exits non-zero on the first
// failing check.  Run it through `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "probe.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload_util.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_median() {
  using perfbench::median;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3, 1, 2}) == 2.0, "median of odd count");
  expect(median({4, 1, 3, 2}) == 2.5, "median of even count");
  expect(perfbench::medians({{5, 1, 900}, {2}, {7, 3}}) == std::vector<double>{5, 2, 5},
         "per-slot medians ignore one stalled repetition");
}

void test_tail_rule() {
  using perfbench::tail;
  auto t = tail(iota_samples(1000));
  expect(t.rule_met && t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
         "n=1000: p99 with exactly 10 beyond");
  t = tail(iota_samples(999));
  expect(t.rule_met && t.percentile == 90.0 && t.beyond >= 10,
         "n=999: p99 would leave 9 beyond, falls back to p90");
  t = tail(iota_samples(20000));
  expect(t.percentile == 99.0 && t.beyond == 200, "n=20000: p99 is the top of the ladder");
  t = tail(iota_samples(100));
  expect(t.percentile == 90.0 && t.value == 90.0 && t.samples == 100, "n=100: p90");
  t = tail(iota_samples(19));
  expect(!t.rule_met && t.percentile == 100.0 && t.value == 19.0,
         "n=19: no ladder step keeps 10 beyond, reports the maximum");
  t = tail(iota_samples(20));
  expect(t.rule_met && t.percentile == 50.0 && t.beyond == 10, "n=20: p50");
  expect(perfbench::describe(tail(iota_samples(1000))) == "p99 of 1000 samples (10 beyond)",
         "tail label names percentile and sample count");
}

void test_span_accounting() {
  using namespace perfbench;
  // Window [0, 100) with children [10, 40) and [40, 60); an estimate of
  // 4 x 2 ns is carved out of attest.a's self time.
  std::vector<Span> spans = {
      {"bench.round", 0, 100, -1, 1},
      {"attest.a", 10, 40, 0, 1},
      {"sim.b", 40, 60, 0, 1},
      {"attest.c", 12, 20, 1, 1},
      {"calib.x", 200, 300, -1, 0},  // outside the window
  };
  TraceSummary s = summarize(spans, "bench.round", 1, {{"crypto.e", "attest.a", 4, 2e-9}});
  double attributed = 0;
  bool each_le = true;
  for (const LayerStats& l : s.layers) {
    attributed += l.busy_s;
    each_le = each_le && l.busy_s <= s.capacity_s + 1e-15;
  }
  expect(near(s.window_s, 100e-9), "window is the window span's duration");
  expect(each_le, "every layer's busy time <= window");
  expect(near(attributed, 50e-9), "attributed = union of the window's children");
  expect(near(s.unattributed_share, 0.5), "unattributed = window self share");
  const auto find = [&](const std::string& name) {
    for (const NameStats& n : s.names) {
      if (n.name == name) return n;
    }
    return NameStats{};
  };
  expect(near(find("attest.a").self_s, (30 - 8 - 8) * 1e-9),
         "self = duration - children - carved estimate");
  expect(near(find("crypto.e").busy_s, 8e-9), "estimate busy = count x per-call");
  // An estimate larger than its parent's self time is scaled to fit.
  s = summarize(spans, "bench.round", 1, {{"crypto.e", "attest.c", 1000, 1e-9}});
  expect(near(find("crypto.e").busy_s, 0.0) || s.estimate_overflow > 0.99,
         "overdrawn estimate is reported as overflow");
  for (const LayerStats& l : s.layers) {
    expect(l.busy_s <= s.capacity_s + 1e-15, "busy <= window with an overdrawn estimate");
  }
  // Parallel children: capacity scales with threads.
  spans = {{"exp.campaign", 0, 100, -1, 0}, {"apps.t", 0, 100, 0, 0}, {"apps.t", 0, 50, 0, 1}};
  s = summarize(spans, "exp.campaign", 2, {});
  expect(near(s.unattributed_share, 0.25), "pool overhead = 1 - sum(trials) / (wall x threads)");
}

void test_host_probe() {
  using perfbench::HostProbe;
  HostProbe probe;
  expect(probe.slices() == 0 && probe.slowdown() == 1.0, "probe: slowdown is 1 before a sample");
  probe.sample(5);
  double kernels = 0;
  for (HostProbe::Kernel k : {HostProbe::kSha, HostProbe::kHeap}) {
    kernels += probe.mean_s(k);
  }
  expect(probe.slices() == 5 && probe.mean_s(HostProbe::kTotal) > 0 &&
             near(probe.slowdown(), probe.mean_s(HostProbe::kTotal) / HostProbe::kNominalSliceS),
         "probe: slowdown = mean slice / nominal");
  expect(kernels <= probe.mean_s(HostProbe::kTotal) * 1.5, "probe: kernels make up the slice");
  expect(probe.slowdown_since(0) == probe.slowdown() && probe.slowdown_since(5) == 1.0,
         "probe: slowdown_since covers the slices from the mark on; 1 past the last");
  probe.sample(3);
  const double since = probe.slowdown_since(5);
  expect(since > 0 && since != probe.slowdown(), "probe: slowdown_since reads only later slices");
  perfbench::RunResult r;
  perfbench::set_at_nominal_speed(r, probe, {100, 2, 3}, {90, 2.2, 3.3}, 0.5);
  expect(r.metrics["rounds_per_host_s"].value == 100 && r.metrics["round_host_ms.p50"].value == 2 &&
             r.metrics["round_host_ms.tail"].value == 3 &&
             near(r.metrics["setup_s"].value, 0.5 / probe.slowdown()),
         "set_at_nominal_speed keeps the pass-scaled times and scales set-up by the whole run");
}

void test_fingerprints() {
  using namespace perfbench;
  RunOptions o;
  o.seed = 3;
  o.seconds = 0.01;
  o.workload = "device_churn";
  const RunResult a = run_device_churn(o);
  const RunResult b = run_device_churn(o);
  expect(!a.fingerprint.empty() && a.fingerprint == b.fingerprint && a.failed == 0,
         "device_churn: two same-seed runs give one fingerprint");
  o.seed = 4;
  expect(run_device_churn(o).fingerprint != a.fingerprint,
         "device_churn: another seed gives another fingerprint");
  o.seed = 3;
  o.workload = "table1_writer";
  const RunResult c = run_table1_writer(o);
  const RunResult d = run_table1_writer(o);
  expect(!c.fingerprint.empty() && c.fingerprint == d.fingerprint && c.failed == 0,
         "table1_writer: two same-seed runs give one fingerprint");
  expect(table1_fingerprint(3, 1) == table1_fingerprint(3, 4),
         "table1_writer: aggregates equal at 1 and 4 threads");
  expect(table1_fingerprint(3, 1) == c.fingerprint,
         "table1_writer: the run's fingerprint is the campaign's");
  o.workload = "fleet_lossy";
  const RunResult e = run_fleet_lossy(o);
  const RunResult f = run_fleet_lossy(o);
  expect(!e.fingerprint.empty() && e.fingerprint == f.fingerprint && e.failed == 0,
         "fleet_lossy: two same-seed runs give one fingerprint");
}

void test_traced_busy_le_wall() {
  using namespace perfbench;
  RunOptions o;
  o.seed = 5;
  o.seconds = 0.01;
  o.trace = true;
  o.workload = "device_churn";
  const RunResult r = run_device_churn(o);
  const auto it = r.metrics.find("trace.unattributed_share");
  expect(it != r.metrics.end() && it->second.value >= 0.0 && it->second.value <= 1.0,
         "device_churn traced: 0 <= unattributed share <= 1 (busy <= wall)");
}

}  // namespace

int main() {
  test_median();
  test_tail_rule();
  test_span_accounting();
  test_host_probe();
  test_fingerprints();
  test_traced_busy_le_wall();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
