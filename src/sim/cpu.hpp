#pragma once
/// \file cpu.hpp
/// Single-core CPU with priority dispatch at *segment* granularity.
///
/// Every piece of work executes as a sequence of non-preemptible segments.
/// This captures the paper's execution modalities exactly:
///   - SMART-style atomic attestation  = the whole measurement is ONE
///     segment (interrupts disabled), so a critical task arriving mid-way
///     waits for the full measurement;
///   - TrustLite/SMARM-style interruptible attestation = one segment per
///     memory block, so the wait is bounded by a block measurement;
///   - the application's sensor poll = one short segment.
/// When a segment ends, the highest-priority ready process is dispatched
/// (larger number = more important), so a higher-priority arrival
/// effectively preempts at the next segment boundary.

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/sim/time.hpp"

namespace rasc::sim {

/// One non-preemptible unit of CPU work.
struct Segment {
  Duration duration = 0;
  /// Invoked when the segment finishes (simulated time has advanced).
  std::function<void()> on_complete;
};

/// A schedulable entity.  The CPU calls next_segment() whenever it grants
/// the process the core; returning std::nullopt parks the process (it must
/// be made ready again to run).  Processes are owned by the scenario and
/// must outlive the Cpu.
class Process {
 public:
  Process(std::string name, int priority) : name_(std::move(name)), priority_(priority) {}
  virtual ~Process() = default;

  virtual std::optional<Segment> next_segment() = 0;

  const std::string& name() const noexcept { return name_; }
  int priority() const noexcept { return priority_; }
  void set_priority(int p) noexcept { priority_ = p; }

 private:
  std::string name_;
  int priority_;
};

class Cpu {
 public:
  /// `owner` names the core in the journal (a Device passes its id); it
  /// must outlive the Cpu.  Every executed segment and every wait for the
  /// core is journaled as a span (kCpuSegment / kCpuWait) when a journal
  /// is attached to the simulator.
  explicit Cpu(Simulator& sim, std::string_view owner = "cpu")
      : sim_(sim), owner_(owner) {}

  /// Add a process to the ready set (no-op if already ready) and dispatch
  /// as soon as the core is free.
  void make_ready(Process& p);

  /// Remove from the ready set without running (e.g. task cancelled).  A
  /// currently-running segment still completes.
  void remove(Process& p);

  bool busy() const noexcept { return running_ != nullptr; }
  Process* running() const noexcept { return running_; }
  /// End time of the current segment (valid when busy()).
  Time busy_until() const noexcept { return segment_start_ + segment_.duration; }

  /// Total CPU time consumed per process name.  At most
  /// kMaxConsumedEntries distinct names are tracked; beyond that, time is
  /// aggregated under "(other)" so dynamically-named processes cannot grow
  /// the table without bound in long-running scenarios.
  Duration consumed(const std::string& name) const;

  static constexpr std::size_t kMaxConsumedEntries = 4096;

 private:
  /// A member of the ready set.  `waiting_since` is when it was made
  /// ready on a busy core, for the preemption-wait span; kNotWaiting if
  /// the core was idle then or it has been dispatched since.
  struct Ready {
    Process* process;
    Time waiting_since;
  };
  static constexpr Time kNotWaiting = ~Time{0};

  void schedule_dispatch();
  void dispatch();
  void complete_segment();
  Duration& consumed_total(std::string_view name);

  void journal_span(obs::JournalEventKind kind, Time start, const Process& p,
                    Duration duration);

  Simulator& sim_;
  std::string_view owner_;
  std::vector<Ready> ready_;
  Process* running_ = nullptr;
  /// The running segment (valid when busy()); its completion event
  /// captures only `this`.
  Time segment_start_ = 0;
  Segment segment_;
  bool dispatch_pending_ = false;
  /// Per-name totals.  A core runs a handful of processes, so a linear
  /// scan compares a few names where a hash map hashed one per segment.
  std::vector<std::pair<std::string, Duration>> consumed_;
};

}  // namespace rasc::sim
