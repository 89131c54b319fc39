#include "src/sim/cpu.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "src/obs/chrome_trace.hpp"

namespace rasc::sim {
namespace {

/// CPU time the journal's cpu.segment spans give the process `name`.
Duration segment_time(const obs::EventJournal& journal, std::string_view name) {
  Duration total = 0;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const obs::JournalEvent& e = journal.at(i);
    if (e.kind == obs::JournalEventKind::kCpuSegment &&
        journal.actor_name(static_cast<std::uint32_t>(e.a)) == name) {
      total += e.b;
    }
  }
  return total;
}

/// Test process executing a fixed list of segment durations.
class ScriptedProcess final : public Process {
 public:
  ScriptedProcess(std::string name, int priority, std::vector<Duration> segments,
                  Simulator& sim)
      : Process(std::move(name), priority), segments_(std::move(segments)), sim_(sim) {}

  std::optional<Segment> next_segment() override {
    if (next_ >= segments_.size()) return std::nullopt;
    const Duration d = segments_[next_++];
    return Segment{d, [this] { completions_.push_back(sim_.now()); }};
  }

  const std::vector<Time>& completions() const { return completions_; }

 private:
  std::vector<Duration> segments_;
  std::size_t next_ = 0;
  Simulator& sim_;
  std::vector<Time> completions_;
};

TEST(Cpu, RunsSegmentsBackToBack) {
  Simulator sim;
  obs::EventJournal journal;
  sim.set_journal(&journal);
  Cpu cpu(sim);
  ScriptedProcess p("p", 1, {10, 20, 30}, sim);
  cpu.make_ready(p);
  sim.run();
  EXPECT_EQ(p.completions(), (std::vector<Time>{10, 30, 60}));
  EXPECT_EQ(segment_time(journal, "p"), 60u);
  EXPECT_EQ(segment_time(journal, "ghost"), 0u);
}

TEST(Cpu, HigherPriorityWinsAtDispatch) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess low("low", 1, {10}, sim);
  ScriptedProcess high("high", 9, {10}, sim);
  cpu.make_ready(low);
  cpu.make_ready(high);
  sim.run();
  EXPECT_EQ(high.completions()[0], 10u);
  EXPECT_EQ(low.completions()[0], 20u);
}

TEST(Cpu, SegmentIsNotPreempted) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess long_task("long", 1, {100}, sim);
  ScriptedProcess urgent("urgent", 9, {5}, sim);
  cpu.make_ready(long_task);
  // Urgent work arrives mid-segment: must wait for the segment boundary.
  sim.schedule_at(50, [&] { cpu.make_ready(urgent); });
  sim.run();
  EXPECT_EQ(long_task.completions()[0], 100u);
  EXPECT_EQ(urgent.completions()[0], 105u);
}

TEST(Cpu, PreemptionAtSegmentBoundary) {
  Simulator sim;
  Cpu cpu(sim);
  // Low-priority work split into small segments (interruptible).
  ScriptedProcess chunks("chunks", 1, {10, 10, 10, 10}, sim);
  ScriptedProcess urgent("urgent", 9, {5}, sim);
  cpu.make_ready(chunks);
  sim.schedule_at(12, [&] { cpu.make_ready(urgent); });
  sim.run();
  // Urgent runs after the in-flight chunk [10,20) finishes.
  EXPECT_EQ(urgent.completions()[0], 25u);
  EXPECT_EQ(chunks.completions().back(), 45u);
}

TEST(Cpu, FifoAmongEqualPriorities) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess a("a", 5, {10}, sim);
  ScriptedProcess b("b", 5, {10}, sim);
  cpu.make_ready(a);
  cpu.make_ready(b);
  sim.run();
  EXPECT_LT(a.completions()[0], b.completions()[0]);
}

TEST(Cpu, ParkedProcessCanBeReactivated) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess once("once", 1, {10}, sim);
  cpu.make_ready(once);
  sim.run();
  ASSERT_EQ(once.completions().size(), 1u);
  // Re-activating a process with no work is harmless.
  cpu.make_ready(once);
  sim.run();
  EXPECT_EQ(once.completions().size(), 1u);
}

TEST(Cpu, MakeReadyIsIdempotentWhileQueued) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess p("p", 1, {10}, sim);
  cpu.make_ready(p);
  cpu.make_ready(p);
  cpu.make_ready(p);
  sim.run();
  EXPECT_EQ(p.completions().size(), 1u);
}

TEST(Cpu, BusyReflectsRunningSegment) {
  Simulator sim;
  Cpu cpu(sim);
  ScriptedProcess p("p", 1, {100}, sim);
  cpu.make_ready(p);
  bool was_busy = false;
  Time busy_until = 0;
  sim.schedule_at(50, [&] {
    was_busy = cpu.busy();
    busy_until = cpu.busy_until();
  });
  sim.run();
  EXPECT_TRUE(was_busy);
  EXPECT_EQ(busy_until, 100u);
  EXPECT_FALSE(cpu.busy());
}

TEST(Cpu, TraceRecordsExecutions) {
  Simulator sim;
  obs::EventJournal journal;
  sim.set_journal(&journal);
  Cpu cpu(sim);
  ScriptedProcess p("traced", 1, {10, 20}, sim);
  cpu.make_ready(p);
  sim.run();
  obs::JournalFilter segments;
  segments.kind = obs::JournalEventKind::kCpuSegment;
  const auto records = journal.select(segments);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].time, 0u);
  EXPECT_EQ(records[0].time + records[0].b, 10u);
  EXPECT_EQ(records[1].time + records[1].b, 30u);
  EXPECT_EQ(journal.actor_name(static_cast<std::uint32_t>(records[0].a)), "traced");
  EXPECT_EQ(journal.actor_name(records[0].actor), "cpu");
}

TEST(Cpu, TraceCapacityEvictsOldestRecords) {
  Simulator sim;
  obs::EventJournal journal(2);
  sim.set_journal(&journal);
  Cpu cpu(sim);
  ScriptedProcess p("traced", 1, {10, 10, 10, 10}, sim);
  cpu.make_ready(p);
  sim.run();
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.dropped(), 2u);
  // The two most recent segments survive.
  EXPECT_EQ(journal.at(0).time, 20u);
  EXPECT_EQ(journal.at(1).time + journal.at(1).b, 40u);
}

TEST(Cpu, ReseatRenamesTheCoreAndRefusesWhileWorkIsPending) {
  Simulator sim;
  obs::EventJournal journal;
  sim.set_journal(&journal);
  std::string owner = "core";
  Cpu cpu(sim, owner);
  ScriptedProcess first("first", 1, {10}, sim);
  cpu.make_ready(first);
  EXPECT_THROW(cpu.reseat(owner), std::logic_error);  // dispatch pending
  sim.run();
  // Same storage, longer name: the core must take a view of its new length.
  owner = "core-renamed";
  cpu.reseat(owner);
  ScriptedProcess second("second", 1, {5}, sim);
  cpu.make_ready(second);
  sim.run();
  const auto spans = obs::spans_named(journal, "second");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].track, "cpu/core-renamed");
  EXPECT_EQ(spans[0].time, 10u);
}

TEST(Cpu, SegmentsReportToAttachedJournal) {
  Simulator sim;
  obs::EventJournal journal;
  sim.set_journal(&journal);
  Cpu cpu(sim, "test");
  ScriptedProcess worker("worker", 1, {10, 20}, sim);
  ScriptedProcess urgent("urgent", 5, {5}, sim);
  cpu.make_ready(worker);
  sim.schedule_at(4, [&] { cpu.make_ready(urgent); });
  sim.run();
  const auto spans = obs::spans_named(journal, "worker");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].track, "cpu/test");
  EXPECT_EQ(spans[0].time, 0u);
  EXPECT_EQ(spans[0].end(), 10u);
  EXPECT_EQ(spans[1].end(), 35u);
  // The urgent arrival waited out the worker's first segment: one wait
  // span on the core's wait row, then its own segment.
  const auto urgent_spans = obs::spans_named(journal, "urgent");
  ASSERT_EQ(urgent_spans.size(), 2u);
  EXPECT_EQ(urgent_spans[0].track, "cpu/test/wait");
  EXPECT_EQ(urgent_spans[0].time, 4u);
  EXPECT_EQ(urgent_spans[0].end(), 10u);
  EXPECT_EQ(urgent_spans[1].track, "cpu/test");
  EXPECT_EQ(urgent_spans[1].end(), 15u);
}

}  // namespace
}  // namespace rasc::sim
