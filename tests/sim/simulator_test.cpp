#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "src/support/rng.hpp"

namespace rasc::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired_at = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  Time fired_at = 999;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 100u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(10, [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, HandleNotPendingAfterFiring) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(static_cast<Time>(i), [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40u);
}

TEST(Simulator, NeitherCopyableNorMovable) {
  // Handles and scheduled callbacks hold pointers to the Simulator.
  static_assert(!std::is_copy_constructible_v<Simulator>);
  static_assert(!std::is_copy_assignable_v<Simulator>);
  static_assert(!std::is_move_constructible_v<Simulator>);
  static_assert(!std::is_move_assignable_v<Simulator>);
}

TEST(Simulator, StaleHandleIgnoresItsSlotsNextOccupant) {
  Simulator sim;
  EventHandle fired_first = sim.schedule_at(10, [] {});
  sim.run();
  EventHandle cancelled_first = sim.schedule_at(15, [] {});
  cancelled_first.cancel();
  // Both slots are free again; the next two events reuse them.
  int fired = 0;
  EventHandle a = sim.schedule_at(20, [&] { ++fired; });
  EventHandle b = sim.schedule_at(30, [&] { ++fired; });
  EXPECT_FALSE(fired_first.pending());
  EXPECT_FALSE(cancelled_first.pending());
  fired_first.cancel();
  cancelled_first.cancel();
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(a.pending());
}

TEST(Simulator, HandleIsNotPendingWhileItsEventRuns) {
  Simulator sim;
  EventHandle self;
  bool pending_inside = true;
  self = sim.schedule_at(5, [&] {
    pending_inside = self.pending();
    self.cancel();  // a no-op on the running event
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(pending_inside);
}

TEST(Simulator, CancelledEventsStayQueuedUntilTheyWouldFire) {
  // pending_events() feeds the journal's queue-depth samples, so it counts
  // a cancelled event until the dispatcher reaches it, as a lazily pruned
  // priority queue does.
  Simulator sim;
  EventHandle future = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EventHandle now = sim.schedule_at(0, [] {});
  EventHandle late = sim.schedule_at(40, [] {});
  future.cancel();
  now.cancel();
  late.cancel();
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.run(1), 1u);  // drops `now` and `future`, fires t = 20
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.empty());
  // run_until drops a cancelled front entry even past its horizon.
  EXPECT_EQ(sim.run_until(30), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, ZeroDelayEventsFollowEarlierEventsDueNow) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_in(0, [&] { order.push_back(4); });
    sim.schedule_at(3, [&] { order.push_back(5); });  // clamped to 10
  });
  sim.schedule_at(10, [&] {
    order.push_back(2);
    sim.schedule_in(0, [&] { order.push_back(6); });
  });
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.schedule_at(11, [&] { order.push_back(7); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, QueueDepthSamplesMatchThePreArmingLoop) {
  // The journal samples pending_events() every 4096 firings; a series'
  // arrivals not yet queued count, as the loop's queued events did.
  const auto depth_samples = [](bool series) {
    Simulator sim;
    obs::EventJournal journal;
    sim.set_journal(&journal);
    sim.schedule_at(2500, [] {});  // ties with, and fires before, arrival 2500
    if (series) {
      sim.schedule_every(1, 1, 9000, [] {});
    } else {
      for (Time t = 1; t <= 9000; ++t) sim.schedule_at(t, [] {});
    }
    sim.run();
    obs::JournalFilter depth;
    depth.kind = obs::JournalEventKind::kSimQueueDepth;
    std::vector<std::pair<Time, std::uint64_t>> samples;
    for (const auto& ev : journal.select(depth)) samples.emplace_back(ev.time, ev.a);
    return samples;
  };
  const auto from_series = depth_samples(true);
  ASSERT_EQ(from_series.size(), 2u);
  EXPECT_EQ(from_series[0], (std::pair<Time, std::uint64_t>{4095, 4905}));
  EXPECT_EQ(from_series, depth_samples(false));
}

/// One fired event as a queue saw it: which, when, and the queue depth
/// (cancelled entries included) left behind it.
struct Firing {
  std::size_t id;
  Time time;
  std::size_t depth;
  bool operator==(const Firing&) const = default;
};

/// What event `id` does when it fires, the same for any queue whose order
/// so far agrees: up to three children (zero-delay, clamped from the past,
/// a near tie, later, or a periodic series of 0-4 arrivals whose first is
/// due now or in a near tie, between children due at the same times) and
/// sometimes a cancel of any id scheduled so far, which may be pending,
/// cancelled, fired, the running event, or a series arrival (which cannot
/// be cancelled, so both queues ignore it).
template <class Queue>
void run_script(Queue& q, std::uint64_t seed, std::size_t id) {
  support::Xoshiro256 script(seed * 1000003 + id);
  if (q.scheduled() > 4000) return;  // let the run drain
  const std::size_t children = script.below(4);
  for (std::size_t c = 0; c < children; ++c) {
    const Time now = q.now();
    switch (script.below(5)) {
      case 0: q.schedule(now); break;
      case 1: q.schedule(now / 2); break;
      case 2: q.schedule(now + 1 + script.below(3)); break;
      case 3: q.schedule(now + script.below(1000)); break;
      default: {
        const Time first = now + script.below(3);
        const Duration period = script.below(4);  // 0: every arrival ties
        q.schedule_every(first, period, script.below(5));
        break;
      }
    }
  }
  if (script.chance(0.3)) q.cancel(script.below(q.scheduled()));
}

struct SimulatorUnderTest {
  std::uint64_t seed;
  Simulator sim;
  std::vector<EventHandle> handles;
  std::vector<Firing> trace;

  explicit SimulatorUnderTest(std::uint64_t s) : seed(s) {}
  std::size_t scheduled() const { return handles.size(); }
  Time now() const { return sim.now(); }
  std::size_t depth() const { return sim.pending_events(); }
  void schedule(Time t) {
    const std::size_t id = handles.size();
    handles.push_back(sim.schedule_at(t, [this, id] {
      trace.push_back({id, sim.now(), sim.pending_events()});
      run_script(*this, seed, id);
    }));
  }
  /// One series; its arrivals take the next `count` ids, with inert handles.
  void schedule_every(Time first, Duration period, std::size_t count) {
    sim.schedule_every(first, period, count, [this, id = handles.size()]() mutable {
      const std::size_t arrival = id++;
      trace.push_back({arrival, sim.now(), sim.pending_events()});
      run_script(*this, seed, arrival);
    });
    handles.resize(handles.size() + count);
  }
  void cancel(std::size_t id) { handles[id].cancel(); }
  std::size_t run(std::size_t limit) { return sim.run(limit); }
  std::size_t run_until(Time t) { return sim.run_until(t); }
};

/// The ordering contract without the event core: one priority queue of
/// (time, seq) whose cancelled entries are dropped when they reach the
/// top.
struct ReferenceQueue {
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::size_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::uint64_t seed;
  Time clock = 0;
  std::uint64_t next_seq = 0;
  std::vector<bool> done;      ///< fired or cancelled, by id
  std::vector<bool> periodic;  ///< scheduled by schedule_every, by id
  std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  std::vector<Firing> trace;

  explicit ReferenceQueue(std::uint64_t s) : seed(s) {}
  std::size_t scheduled() const { return done.size(); }
  Time now() const { return clock; }
  std::size_t depth() const { return queue.size(); }
  void schedule(Time t, bool series_arrival = false) {
    queue.push(Entry{t < clock ? clock : t, next_seq++, done.size()});
    done.push_back(false);
    periodic.push_back(series_arrival);
  }
  /// A series is its arrivals, all queued now: the pre-arming loop.
  void schedule_every(Time first, Duration period, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) schedule(first + k * period, true);
  }
  void cancel(std::size_t id) {
    if (!periodic[id]) done[id] = true;
  }
  bool fire_next() {
    while (!queue.empty()) {
      const Entry e = queue.top();
      queue.pop();
      if (done[e.id]) continue;
      done[e.id] = true;
      clock = e.time;
      trace.push_back({e.id, clock, queue.size()});
      run_script(*this, seed, e.id);
      return true;
    }
    return false;
  }
  std::size_t run(std::size_t limit) {
    std::size_t fired = 0;
    while (fired < limit && fire_next()) ++fired;
    return fired;
  }
  std::size_t run_until(Time t) {
    std::size_t fired = 0;
    while (!queue.empty()) {
      if (done[queue.top().id]) {
        queue.pop();
        continue;
      }
      if (queue.top().time > t) break;
      if (fire_next()) ++fired;
    }
    if (clock < t) clock = t;
    return fired;
  }
};

TEST(Simulator, MatchesReferenceQueueUnderMixedSchedulesAndCancels) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    SimulatorUnderTest sim(seed);
    ReferenceQueue ref(seed);
    support::Xoshiro256 rng(seed);
    for (int i = 0; i < 40; ++i) {
      const Time t = rng.below(200);
      sim.schedule(t);
      ref.schedule(t);
      if (i % 8 == 0) {  // a few series from the start, one of them due now
        const Time first = i == 0 ? 0 : rng.below(200);
        const Duration period = 1 + rng.below(30);
        const std::size_t count = rng.below(6);
        sim.schedule_every(first, period, count);
        ref.schedule_every(first, period, count);
      }
    }
    // Alternate run(k) and run_until(t) calls, as scenarios and fleets do.
    while (sim.depth() > 0 || ref.depth() > 0) {
      if (rng.chance(0.5)) {
        const std::size_t limit = 1 + rng.below(8);
        ASSERT_EQ(sim.run(limit), ref.run(limit));
      } else {
        const Time until = sim.now() + rng.below(50);
        ASSERT_EQ(sim.run_until(until), ref.run_until(until));
      }
      ASSERT_EQ(sim.now(), ref.now());
      ASSERT_EQ(sim.depth(), ref.depth());
    }
    ASSERT_EQ(sim.trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < sim.trace.size(); ++i) {
      ASSERT_EQ(sim.trace[i], ref.trace[i]) << "firing " << i;
    }
    EXPECT_GT(sim.trace.size(), 2000u);
    const auto series_arrivals = std::count_if(
        ref.trace.begin(), ref.trace.end(), [&](const Firing& f) { return ref.periodic[f.id]; });
    EXPECT_GT(series_arrivals, 200);
  }
}

TEST(FormatDuration, HumanReadable) {
  EXPECT_EQ(format_duration(1500 * kMillisecond), "1.500 s");
  EXPECT_EQ(format_duration(3200 * kMicrosecond), "3.200 ms");
  EXPECT_EQ(format_duration(750), "750 ns");
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
  EXPECT_EQ(from_seconds(2.5), 2500 * kMillisecond);
}

}  // namespace
}  // namespace rasc::sim
