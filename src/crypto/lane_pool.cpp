#include "src/crypto/lane_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/crypto/lanes.hpp"

namespace rasc::crypto::lane_detail {

namespace {

/// The CPUs the process may run on, read once at load: a thread started
/// later inherits the set of the thread that starts it, which may since
/// have been narrowed (perfbench's rotor pins its timed thread to one CPU
/// at a time).  Empty when it cannot be read, which leaves no helper.
cpu_set_t startup_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
  return set;
}

const cpu_set_t g_startup_cpus = startup_cpus();

/// One batch being digested across cores: every participant claims the
/// next part from `next`.
struct SplitBatch {
  HashKind kind;
  const support::ByteView* msgs;
  const support::MutableByteView* outs;
  std::size_t count;
  std::atomic<std::size_t> next{0};

  void work() noexcept {
    for (std::size_t at; (at = next.fetch_add(kSplitPart, std::memory_order_relaxed)) < count;) {
      digest_serial(kind, msgs + at, outs + at, std::min(kSplitPart, count - at));
    }
  }
};

/// helper_count() threads, each serving one slot.  A caller posts its batch
/// to idle slots, works on it itself, then takes back every post a helper
/// has not picked up and waits for the helpers that did.  Helpers wait for
/// nothing but a post, so no caller can wait on a helper that waits on it.
class HelperPool {
 public:
  HelperPool()
      : slots_(std::make_unique<Slot[]>(helper_count())),
        threads_(std::make_unique<std::thread[]>(helper_count())) {
    try {
      for (; started_ < helper_count(); ++started_) {
        Slot& slot = slots_[started_];
        threads_[started_] = std::thread([this, &slot] { serve(slot); });
      }
    } catch (const std::system_error&) {
      // Fewer helpers than CPUs: the slots without one are never posted to.
    }
  }

  ~HelperPool() {
    for (std::size_t h = 0; h < started_; ++h) {
      {
        std::lock_guard<std::mutex> lock(slots_[h].mu);
        slots_[h].stop = true;
      }
      slots_[h].cv.notify_all();
    }
    for (std::size_t h = 0; h < started_; ++h) threads_[h].join();
  }

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  void run(SplitBatch& batch) {
    const std::size_t parts = (batch.count + kSplitPart - 1) / kSplitPart;
    std::size_t posted = 0;
    for (std::size_t h = 0; h < started_ && posted + 1 < parts; ++h) {
      Slot& slot = slots_[h];
      {
        std::lock_guard<std::mutex> lock(slot.mu);
        if (slot.state != State::kIdle) continue;
        slot.state = State::kPosted;
        slot.batch = &batch;
      }
      slot.cv.notify_all();
      ++posted;
    }
    batch.work();
    for (std::size_t h = 0; h < started_ && posted > 0; ++h) {
      Slot& slot = slots_[h];
      std::unique_lock<std::mutex> lock(slot.mu);
      if (slot.batch != &batch) continue;
      --posted;
      slot.cv.wait(lock, [&slot] { return slot.state != State::kBusy; });
      slot.state = State::kIdle;  // from kPosted (never picked up) or kDone
      slot.batch = nullptr;
    }
  }

 private:
  enum class State : std::uint8_t { kIdle, kPosted, kBusy, kDone };

  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    State state = State::kIdle;   ///< guarded by mu
    SplitBatch* batch = nullptr;  ///< guarded by mu; set from kPosted to kDone
    bool stop = false;            ///< guarded by mu
  };

  void serve(Slot& slot) {
    // Named so /proc/<pid>/task/*/comm shows whether a process started any.
    pthread_setname_np(pthread_self(), "rasc-digest");
    sched_setaffinity(0, sizeof g_startup_cpus, &g_startup_cpus);  // else keep the inherited set
    std::unique_lock<std::mutex> lock(slot.mu);
    for (;;) {
      slot.cv.wait(lock, [&slot] { return slot.state == State::kPosted || slot.stop; });
      if (slot.state != State::kPosted) return;
      slot.state = State::kBusy;
      SplitBatch& batch = *slot.batch;
      lock.unlock();
      batch.work();
      lock.lock();
      slot.state = State::kDone;
      slot.cv.notify_all();
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t started_ = 0;
  std::unique_ptr<std::thread[]> threads_;  ///< last: the threads use the slots
};

}  // namespace

std::size_t helper_count() noexcept {
  const int cpus = CPU_COUNT(&g_startup_cpus);
  return cpus > 1 ? static_cast<std::size_t>(cpus - 1) : 0;
}

void digest_split(HashKind kind, const support::ByteView* msgs,
                  const support::MutableByteView* outs, std::size_t count) {
  // Constructed by the first split and destroyed at exit, which stops and
  // joins the helpers.
  static HelperPool pool;
  SplitBatch batch{kind, msgs, outs, count};
  pool.run(batch);
}

}  // namespace rasc::crypto::lane_detail
