#pragma once
/// \file simulator.hpp
/// Discrete-event simulator core: a virtual clock plus an ordered event
/// queue.  Everything in the device model (task arrivals, measurement
/// steps, network deliveries, malware moves) is an event.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/obs/journal.hpp"
#include "src/sim/time.hpp"

namespace rasc::sim {

/// Handle used to cancel a scheduled event.  Default-constructed handles
/// are inert.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled.
  bool pending() const noexcept { return alive_ && *alive_; }

  /// Cancel the event if still pending (idempotent).
  void cancel() noexcept {
    if (alive_) *alive_ = false;
  }

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  std::shared_ptr<bool> alive_;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

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
  struct Event {
    Time time;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool fire_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_fired_ = 0;
  obs::EventJournal* journal_ = nullptr;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace rasc::sim
