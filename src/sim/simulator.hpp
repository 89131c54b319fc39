#pragma once
/// \file simulator.hpp
/// Discrete-event simulator core: a virtual clock plus an ordered event
/// queue.  Everything in the device model (task arrivals, measurement
/// steps, network deliveries, malware moves) is an event.
///
/// Events fire in (time, scheduling order).  Each scheduled callback sits
/// in a pooled slot and the priority queue orders only 24 B POD entries
/// naming (slot, generation), so a heap sift never moves a callable.
/// Once the pool is warm, scheduling, firing and cancelling allocate
/// nothing for callbacks whose captures libstdc++'s std::function keeps
/// inline (up to 16 B, trivially copyable: `this` plus a word).

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/obs/journal.hpp"
#include "src/sim/time.hpp"

namespace rasc::sim {

class Simulator;

/// Handle used to cancel a scheduled event: the event's slot and the
/// slot's generation when it was scheduled, so a handle whose event fired
/// or was cancelled goes stale even after the slot is reused.
/// Default-constructed handles are inert.  A handle must not outlive its
/// Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled.
  bool pending() const noexcept;

  /// Cancel the event if still pending (idempotent).
  void cancel() noexcept;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation) noexcept
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  // Handles and in-flight callbacks point at this object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now; earlier times are clamped
  /// to now).  Events at equal times fire in scheduling order.
  EventHandle schedule_at(Time t, Callback fn);

  /// Schedule `fn` after `delay`.
  EventHandle schedule_in(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue is empty or `limit` events fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with time <= t_end; afterwards now() == max(now, t_end).
  std::size_t run_until(Time t_end);

  /// Queued entries, counting cancelled ones not yet reached: a cancelled
  /// event leaves the queue when it would have fired.
  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pending_events() const noexcept { return queue_.size(); }
  std::size_t events_fired() const noexcept { return events_fired_; }

  /// Attach a flight-recorder journal (not owned; nullptr to detach).  All
  /// simulation components reach it through their Simulator, so one call
  /// instruments the whole device: CPU segments, memory locks, link
  /// fates, attestation phases, sessions.  Components query
  /// `sim.journal()` at each event site, so the disabled path is one null
  /// check and the simulation is bit-identical with or without it.  The
  /// dispatcher itself samples queue depth every 4096 events.
  void set_journal(obs::EventJournal* journal) noexcept { journal_ = journal; }
  obs::EventJournal* journal() const noexcept { return journal_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// One pooled callback.  `generation` counts the slot's releases, so an
  /// entry or handle naming an older generation is stale.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
  };
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static_assert(sizeof(Entry) == 24);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// Slots live in fixed chunks that never move or shrink: the pool grows
  /// without reallocation peaks, and a long arming burst (the writer task
  /// pre-arms ~20k arrivals) leaves no large block behind.
  static constexpr std::uint32_t kSlotsPerChunk = 256;

  Slot& slot(std::uint32_t i) const noexcept {
    return chunks_[i / kSlotsPerChunk][i % kSlotsPerChunk];
  }
  bool live(std::uint32_t i, std::uint32_t generation) const noexcept {
    return slot(i).generation == generation;
  }
  void cancel(std::uint32_t index, std::uint32_t generation) noexcept;
  /// Empty a slot, retire its generation and return it to the free list;
  /// returns the callback it held.
  Callback release(std::uint32_t index) noexcept;
  bool fire_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_fired_ = 0;
  obs::EventJournal* journal_ = nullptr;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

inline bool EventHandle::pending() const noexcept {
  return sim_ != nullptr && sim_->live(slot_, generation_);
}

inline void EventHandle::cancel() noexcept {
  if (sim_ != nullptr) sim_->cancel(slot_, generation_);
}

}  // namespace rasc::sim
