#pragma once
/// \file probe.hpp
/// A fixed piece of host work that shares no code with rasc, timed in short
/// slices between and within a workload's passes.  On a shared host the
/// speed of every CPU drifts with its neighbours' load, in phases of
/// seconds to minutes; a pass that falls into a slow phase reads slow as a
/// whole, however many medians it takes.  The probe's slices next to the
/// same pass are slow in the same phase, so a workload reports each pass's
/// host time at the probe's nominal speed: time / slowdown_since(mark),
/// with `mark` taken just before the pass's first slices.  The probe's code
/// never changes with rasc, so a change to rasc moves the workload's time
/// and not the probe's.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Kernels of one slice; kTotal indexes the whole slice.
  enum Kernel : std::size_t { kSha, kHeap, kTotal };

  /// Trimmed-mean slice time on a quiet 4-vCPU "Intel Xeon Processor" VM.
  static constexpr double kNominalSliceS = 1.0e-3;

  HostProbe();

  /// Time `slices` slices now, one after the other on each allowed CPU in
  /// turn (each after an untimed warm-up slice on that CPU); the calling
  /// thread's CPU set is restored afterwards.
  void sample(std::size_t slices);

  std::size_t slices() const noexcept { return samples_[kTotal].size(); }
  /// Mean of the middle 80% of one kernel's slice times, in seconds (0
  /// before the first sample).  A workload spends equal time on every CPU,
  /// so its speed is a mean over them, not a median.
  double mean_s(Kernel kernel) const;
  /// mean_s(kTotal) / kNominalSliceS: > 1 when the host ran slow; 1 before
  /// the first sample.
  double slowdown() const { return slowdown_since(0); }
  /// The same over the slices from index `from` (a past slices()) on; 1
  /// when there are none.
  double slowdown_since(std::size_t from) const;

 private:
  void slice(bool keep);

  std::vector<std::uint64_t> table_;                           ///< 1 MiB, fixed
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;  ///< fixed capacity
  std::uint32_t sha_[8] = {};
  std::uint64_t x_ = 0x9e3779b97f4a7c15ULL;
  std::array<std::vector<double>, kTotal + 1> samples_;
};

}  // namespace perfbench
