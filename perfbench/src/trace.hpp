#pragma once
/// \file trace.hpp
/// Outside-in span recorder for the traced run.  Spans are taken only
/// around the benchmark's own calls into rasc's public functions (the
/// library itself is not instrumented): name, start, end, parent span and
/// the round the span belongs to.  They stay in memory until the run ends.
///
/// A span's layer is the module prefix of its name ("attest.prover.measure"
/// -> "attest").  summarize() derives per-name busy and self time (self =
/// duration minus the union of the child spans' intervals) and per-layer
/// busy time, and folds in count x per-call-cost estimates for work that
/// happens inside one opaque library call (e.g. the challenge HMACs inside
/// FleetVerifier::run): an estimate is carved out of its parent span's self
/// time, never added on top, so no layer can be busier than the window.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Span {
  const char* name = "";  ///< string literal; never owned
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 = root
  std::uint64_t round = 0;
};

/// Thread-safe, append-only span store.  A disabled tracer records
/// nothing and begin() returns -1, so untraced code paths pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  std::int32_t begin(const char* name, std::int32_t parent = -1, std::uint64_t round = 0);
  void end(std::int32_t span);
  /// Record an already-timed interval.
  std::int32_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                      std::int32_t parent = -1, std::uint64_t round = 0);

  /// Snapshot (call after every recording thread has finished).
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent = -1,
             std::uint64_t round = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, round)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Work inside one opaque library call, priced as count x per-call cost.
struct Estimate {
  std::string name;    ///< e.g. "attest.wire.seal"
  std::string parent;  ///< span name whose self time it is carved from
  double count = 0.0;
  double per_call_s = 0.0;
};

struct NameStats {
  std::string name;
  std::string layer;
  std::size_t count = 0;
  double busy_s = 0.0;  ///< summed durations (estimates: count x cost)
  double self_s = 0.0;  ///< busy minus children (and carved-out estimates)
  bool estimated = false;
};

struct LayerStats {
  std::string layer;
  double busy_s = 0.0;  ///< sum of attributed self time
  double share = 0.0;   ///< busy_s / capacity_s
};

struct TraceSummary {
  double window_s = 0.0;    ///< summed duration of the window spans
  double capacity_s = 0.0;  ///< window_s x worker threads
  std::vector<NameStats> names;
  std::vector<LayerStats> layers;
  /// 1 - sum(layer busy) / capacity.  Self time of the window spans
  /// themselves is what stays unattributed.
  double unattributed_share = 0.0;
  /// Fraction of the estimated busy time that did not fit inside its
  /// parent's measured self time (0 when the estimates are consistent).
  double estimate_overflow = 0.0;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

/// `window` names the spans that delimit the measured window (one per timed
/// repetition); their self time is unattributed.  `threads` scales the
/// window to worker capacity when child spans run in parallel.
TraceSummary summarize(const std::vector<Span>& spans, const std::string& window,
                       std::size_t threads, const std::vector<Estimate>& estimates);

/// Write spans (at most `max_spans`) and the summary as one JSON document.
bool write_trace_json(const std::string& path, const std::string& workload,
                      std::uint64_t seed, const std::vector<Span>& spans,
                      const TraceSummary& summary, std::size_t max_spans);

}  // namespace perfbench
