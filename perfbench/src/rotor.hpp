#pragma once
/// \file rotor.hpp
/// On a shared host the speed of one CPU drifts with its neighbours' load,
/// in phases of tens of seconds, by up to ~1.5x for cache-heavy code.  A
/// run that the scheduler happens to keep on a slow CPU then reads slow as
/// a whole.  CpuRotor moves every enrolled thread to the next allowed CPU
/// every `period`, so each repetition samples all CPUs alike and runs
/// differ far less.  Where affinity cannot be set it does nothing.

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotor {
 public:
  explicit CpuRotor(std::chrono::milliseconds period = std::chrono::milliseconds(50));
  /// Stops rotating and gives every enrolled thread its original CPU set.
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  /// Add the calling thread to the rotation (idempotent, thread-safe).
  void enroll();

 private:
  void loop();

  std::chrono::milliseconds period_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;        ///< guarded by mu_
  std::vector<pid_t> tids_;  ///< guarded by mu_
  std::thread thread_;       ///< last: starts once everything above exists
};

/// Pins the calling thread to the `k`-th allowed CPU (modulo their count)
/// for its lifetime, then gives the thread back its CPU set.  Code that is
/// timed in many short samples from a thread the rotor does not move uses it
/// to sample every CPU alike.  Where affinity cannot be set it does nothing.
class PinnedTo {
 public:
  explicit PinnedTo(std::size_t k);
  ~PinnedTo();
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t original_{};
  bool pinned_ = false;
};

}  // namespace perfbench
