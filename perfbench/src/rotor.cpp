#include "rotor.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>

namespace perfbench {

CpuRotor::CpuRotor(std::chrono::milliseconds period) : period_(period) {
  if (sched_getaffinity(0, sizeof original_, &original_) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
}

CpuRotor::~CpuRotor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  for (pid_t tid : tids_) {
    if (tgkill(getpid(), tid, 0) == 0) sched_setaffinity(tid, sizeof original_, &original_);
  }
}

void CpuRotor::enroll() {
  if (cpus_.size() < 2) return;
  const pid_t tid = gettid();
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(tids_.begin(), tids_.end(), tid) == tids_.end()) tids_.push_back(tid);
}

void CpuRotor::loop() {
  std::size_t step = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
    ++step;
    for (std::size_t k = 0; k < tids_.size();) {
      // Signal 0 only asks whether the thread still exists in this process,
      // so a recycled id can never steer another process.
      if (tgkill(getpid(), tids_[k], 0) != 0) {
        tids_.erase(tids_.begin() + static_cast<std::ptrdiff_t>(k));
        continue;
      }
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[(step + k) % cpus_.size()], &set);
      sched_setaffinity(tids_[k], sizeof set, &set);
      ++k;
    }
  }
}

PinnedTo::PinnedTo(std::size_t k) {
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  const int n = CPU_COUNT(&original_);
  if (n < 2) return;
  int skip = static_cast<int>(k % static_cast<std::size_t>(n));
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &original_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedTo::~PinnedTo() {
  if (pinned_) sched_setaffinity(0, sizeof original_, &original_);
}

}  // namespace perfbench
