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
/// inline (up to 16 B, trivially copyable: `this` plus a word).  A
/// periodic series holds one slot and one queue entry for all of its
/// arrivals.

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

  /// Call `fn` `count` times: at `first` (>= now; an earlier time is
  /// clamped to now), then every `period`.  The call reserves `count`
  /// consecutive sequence numbers, so arrival k carries the (time, seq)
  /// of the k-th of `count` schedule_at(first + k * period) calls made
  /// here, and fires exactly where that call's event would.  The series
  /// holds one slot and one queue entry, re-queued as each arrival fires.
  void schedule_every(Time first, Duration period, std::size_t count, Callback fn);

  /// Run events until the queue is empty or `limit` events fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with time <= t_end; afterwards now() == max(now, t_end).
  std::size_t run_until(Time t_end);

  /// Events still to come: queued entries, counting cancelled ones not yet
  /// reached (a cancelled event leaves the queue when it would have
  /// fired), plus the series arrivals not yet queued.  A series always has
  /// its next arrival queued, so the queue is empty only when this is 0.
  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pending_events() const noexcept { return queue_.size() + unqueued_; }
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
  /// entry or handle naming an older generation is stale.  A series keeps
  /// its slot until its last arrival fires.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    Duration period = 0;       ///< series: time between arrivals
    std::size_t unqueued = 0;  ///< series: arrivals after the queued one
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
  /// Slots live in fixed chunks that never move or shrink: a series
  /// callback runs in place in its slot while it schedules more events,
  /// and a fleet shard's pool grows with its in-flight deliveries and
  /// timers without reallocation peaks.
  static constexpr std::uint32_t kSlotsPerChunk = 256;

  Slot& slot(std::uint32_t i) const noexcept {
    return chunks_[i / kSlotsPerChunk][i % kSlotsPerChunk];
  }
  bool live(std::uint32_t i, std::uint32_t generation) const noexcept {
    return slot(i).generation == generation;
  }
  /// Pop a free slot, growing the pool by a chunk when none is left.
  std::uint32_t acquire();
  void cancel(std::uint32_t index, std::uint32_t generation) noexcept;
  /// Empty a slot, retire its generation and return it to the free list;
  /// returns the callback it held.
  Callback release(std::uint32_t index) noexcept;
  bool fire_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_fired_ = 0;
  std::size_t unqueued_ = 0;  ///< sum of Slot::unqueued over live series
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
