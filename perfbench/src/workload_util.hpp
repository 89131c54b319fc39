#pragma once
/// \file workload_util.hpp
/// Pieces every workload shares: the repetition budget, the per-call cost
/// metrics and the traced-run epilogue.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "calibrate.hpp"
#include "probe.hpp"
#include "rotor.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Start another repetition only if the average one still fits the budget.
inline bool keep_going(std::int64_t start_ns, double budget_s,
                       const std::vector<double>& rep_seconds) {
  const double elapsed = seconds_since(start_ns);
  const double mean =
      rep_seconds.empty()
          ? 0.0
          : std::accumulate(rep_seconds.begin(), rep_seconds.end(), 0.0) /
                static_cast<double>(rep_seconds.size());
  return elapsed + mean <= budget_s;
}

/// The three pass-based host times, before or after scaling.
struct PassTimes {
  double rate = 0;  ///< rounds_per_host_s
  double p50 = 0;   ///< round_host_ms.p50
  double tail = 0;  ///< round_host_ms.tail
};

/// Set the pass-based host times, already scaled pass by pass to the
/// probe's nominal host speed (probe.hpp), and setup_s scaled by the whole
/// run's probe reading; note the raw values and the probe's kernels.
inline void set_at_nominal_speed(RunResult& out, const HostProbe& probe, const PassTimes& scaled,
                                 const PassTimes& raw, double setup_s) {
  const double slow = probe.slowdown();
  out.set("rounds_per_host_s", scaled.rate, "1/s");
  out.set("round_host_ms.p50", scaled.p50, "ms");
  out.set("round_host_ms.tail", scaled.tail, "ms");
  out.set("setup_s", setup_s / slow, "s");
  char line[256];
  std::snprintf(line, sizeof line,
                "probe: %zu slices, mean %.4e s (sha %.4e heap %.4e); "
                "host ran %.4fx slower than nominal",
                probe.slices(), probe.mean_s(HostProbe::kTotal), probe.mean_s(HostProbe::kSha),
                probe.mean_s(HostProbe::kHeap), slow);
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "raw host values: rounds_per_host_s=%.6g round_host_ms.p50=%.6g "
                "round_host_ms.tail=%.6g setup_s=%.6g",
                raw.rate, raw.p50, raw.tail, setup_s);
  out.notes.push_back(line);
}

/// The per-call cost metrics, in the units BENCHMARK.json declares.
inline void set_call_costs(RunResult& out, const CallCosts& c) {
  out.set("fleet.wake_us", c.wake * 1e6, "us");
  out.set("attest.verifier.issue_challenge_us", c.issue_challenge * 1e6, "us");
  out.set("attest.wire.seal_us", c.seal * 1e6, "us");
  out.set("attest.wire.open_us", c.open * 1e6, "us");
  out.set("attest.report.wire_encode_us", c.wire_encode * 1e6, "us");
  out.set("attest.report.wire_decode_us", c.wire_decode * 1e6, "us");
  out.set("attest.verifier.verify_us", c.verify * 1e6, "us");
  out.set("crypto.hmac_short_us", c.hmac_short * 1e6, "us");
  out.set("crypto.drbg.instantiate_us", c.drbg_instantiate * 1e6, "us");
  out.set("crypto.drbg.generate_us", c.drbg_generate * 1e6, "us");
  out.set("crypto.block_digest_us", c.block_digest * 1e6, "us");
  out.set("sim.event_ns", c.event * 1e9, "ns");
  out.set("sim.memory.write_ns", c.memory_write * 1e9, "ns");
  out.set("attest.golden_build_s", c.golden_build, "s");
}

/// Summarize the spans, set trace.* metrics, print the layer table and
/// write the span dump.  `untraced_unit_s` / `traced_unit_s` are the same
/// unit of work (one repetition or one round) timed without and with
/// spans.
inline void finish_trace(RunResult& out, const RunOptions& o, const Tracer& tracer,
                         const std::string& window, std::size_t threads,
                         const std::vector<Estimate>& estimates, double untraced_unit_s,
                         double traced_unit_s) {
  const std::vector<Span> spans = tracer.spans();
  const TraceSummary summary = summarize(spans, window, threads, estimates);
  out.set("trace.unattributed_share", summary.unattributed_share, "ratio");
  out.set("trace.overhead",
          untraced_unit_s > 0 ? traced_unit_s / untraced_unit_s - 1.0 : 0.0, "ratio");
  char line[256];
  for (const LayerStats& l : summary.layers) {
    std::snprintf(line, sizeof line, "layer %-8s busy %10.6f s  share %6.2f%%",
                  l.layer.c_str(), l.busy_s, 100.0 * l.share);
    out.notes.push_back(line);
  }
  for (const NameStats& s : summary.names) {
    std::snprintf(line, sizeof line,
                  "span %-36s n=%-9zu busy %10.6f s  self %10.6f s%s", s.name.c_str(),
                  s.count, s.busy_s, s.self_s, s.estimated ? "  (count x per-call)" : "");
    out.notes.push_back(line);
  }
  std::snprintf(line, sizeof line,
                "trace window %.6f s x %zu thread(s); unattributed %.2f%%; "
                "estimates overdrawn by %.2f%%",
                summary.window_s, threads, 100.0 * summary.unattributed_share,
                100.0 * summary.estimate_overflow);
  out.notes.push_back(line);
  if (!o.trace_path.empty()) {
    constexpr std::size_t kMaxSpansWritten = 200000;
    if (write_trace_json(o.trace_path, o.workload, o.seed, spans, summary, kMaxSpansWritten)) {
      out.notes.push_back("spans written to " + o.trace_path);
    } else {
      out.notes.push_back("could not write spans to " + o.trace_path);
    }
  }
}

}  // namespace perfbench
