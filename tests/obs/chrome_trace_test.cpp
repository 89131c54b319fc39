#include "src/obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include "src/obs/json.hpp"

namespace rasc::obs {
namespace {

using K = JournalEventKind;

/// Golden test: the exact Chrome trace_event serialization derived from a
/// small journal covering every non-flow phase (X span, C counter, a link
/// transit paired from send + deliver, an instant), several tracks and
/// args.  The format is a contract with chrome://tracing / Perfetto — any
/// byte change here must be deliberate.
TEST(ChromeTrace, GoldenExport) {
  EventJournal journal;
  const std::uint32_t dev = journal.intern("prv");
  const std::uint32_t link = journal.intern("vrf->prv");
  journal.append(1'000, dev, 0, 0, K::kCpuSegment, journal.intern("task"), 1'500);
  journal.append(2'000, dev, 0, 0, K::kMemLockedBlocks, 3);
  journal.append(3'000, link, 0, 0, K::kLinkSend, 1, 16);
  journal.append(3'250, link, 0, 0, K::kLinkDeliver, 1, 16);
  journal.append(3'500, link, 0, 0, K::kLinkDrop, 2, 16);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"rasc simulated device\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"cpu/prv\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"mem/prv\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,"
      "\"args\":{\"name\":\"link/vrf->prv\"}},"
      "{\"name\":\"task\",\"ph\":\"X\",\"dur\":1.500,\"ts\":1.000,\"pid\":1,\"tid\":1},"
      "{\"name\":\"mem.locked_blocks\",\"ph\":\"C\",\"ts\":2.000,\"pid\":1,\"tid\":2,"
      "\"args\":{\"value\":3}},"
      "{\"name\":\"link.transit\",\"ph\":\"X\",\"dur\":0.250,\"ts\":3.000,\"pid\":1,"
      "\"tid\":3,\"args\":{\"a\":1,\"b\":16}},"
      "{\"name\":\"link.drop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3.500,\"pid\":1,\"tid\":3,"
      "\"args\":{\"a\":2,\"b\":16}}"
      "]}";
  EXPECT_EQ(to_chrome_json(journal), expected);
}

TEST(ChromeTrace, TimestampsAreFixedPointMicroseconds) {
  // ns resolution survives the microsecond convention losslessly.
  EventJournal journal;
  for (TimeNs t : {TimeNs{1}, TimeNs{999}, TimeNs{1'000'000'007}}) {
    journal.append(t, 1, 0, 0, K::kSessionLateReport);
  }
  const std::string json = to_chrome_json(journal);
  EXPECT_NE(json.find("\"ts\":0.001"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.999"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000000.007"), std::string::npos);
}

TEST(ChromeTrace, EscapesNamesAndArgs) {
  EventJournal journal;
  const std::uint32_t dev = journal.intern("quo\"te");
  journal.append(0, dev, 0, 0, K::kCpuSegment, journal.intern("v\\"), 1);
  const std::string json = to_chrome_json(journal);
  EXPECT_NE(json.find("\"cpu/quo\\\"te\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"v\\\\\""), std::string::npos) << json;
}

TEST(ChromeTrace, EmptySinkStillEmitsValidSkeleton) {
  EventJournal journal;
  EXPECT_EQ(to_chrome_json(journal),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"rasc simulated device\"}}]}");
}

TEST(ChromeTrace, FlowEventsLinkSpansAcrossTracks) {
  // A protocol round whose prover session is retained yields the
  // challenge flow (round start -> session start) and the report flow
  // (session end -> round end), each a matched s/f pair (f binds to its
  // enclosing slice), which is how Perfetto draws the arrows.  A session
  // with no round (its report was lost) draws none.
  EventJournal journal;
  const std::uint32_t prv = journal.intern("prv");
  journal.append(2'000, prv, 0, 0, K::kProverSession, 7, 1'000);
  journal.append(5'000, prv, 0, 0, K::kProverSession, 8, 1'000);
  journal.append(1'000, prv, 0, 0, K::kProtocolRound, 7, 3'000);
  const std::string json = to_chrome_json(journal);
  const auto has = [&json](const std::string& needle) {
    return json.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(has("{\"name\":\"ra.challenge\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,"
                  "\"ts\":1.000,\"pid\":1,\"tid\":2}"))
      << json;
  EXPECT_TRUE(has("{\"name\":\"ra.challenge\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                  "\"id\":1,\"ts\":2.000,\"pid\":1,\"tid\":1}"))
      << json;
  EXPECT_TRUE(has("{\"name\":\"ra.report\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":2,"
                  "\"ts\":3.000,\"pid\":1,\"tid\":1}"))
      << json;
  EXPECT_TRUE(has("{\"name\":\"ra.report\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                  "\"id\":2,\"ts\":4.000,\"pid\":1,\"tid\":2}"))
      << json;
  EXPECT_EQ(count_named(journal, "ra.challenge"), 2u);
  EXPECT_EQ(count_named(journal, "ra.report"), 2u);
  // Flow events are annotations: the slices are still just the spans.
  EXPECT_EQ(spans_named(journal, "attest.session").size(), 2u);
  EXPECT_EQ(spans_named(journal, "ra.round").size(), 1u);
}

TEST(JournalTrace, ReconstructsNestedSpans) {
  // The shape a discrete-event run produces: an attestation session with
  // the measurement window nested inside it, on the prover's track.
  EventJournal journal;
  const std::uint32_t prv = journal.intern("prv");
  journal.append(1'000, prv, 0, 0, K::kProverSession, 1, 8'000);
  journal.append(2'000, prv, 0, 0, K::kProverMeasure, 500, 6'000);

  const auto session = spans_named(journal, "attest.session");
  const auto measure = spans_named(journal, "attest.measure");
  ASSERT_EQ(session.size(), 1u);
  ASSERT_EQ(measure.size(), 1u);
  EXPECT_EQ(session[0].track, "attest/prv");
  EXPECT_EQ(measure[0].track, "attest/prv");
  EXPECT_EQ(session[0].time, 1'000u);
  EXPECT_EQ(session[0].end(), 9'000u);
  EXPECT_EQ(measure[0].time, 2'000u);
  EXPECT_EQ(measure[0].end(), 8'000u);
  EXPECT_EQ(measure[0].duration, 6'000u);
  // The window's instants: t_s, t_e, and t_r after the lock hold.
  const auto events = trace_events(journal);
  const auto at = [&events](std::string_view name) {
    for (const auto& ev : events) {
      if (ev.name == name) return ev.time;
    }
    return TimeNs{0};
  };
  EXPECT_EQ(at("attest.t_s"), 2'000u);
  EXPECT_EQ(at("attest.t_e"), 8'000u);
  EXPECT_EQ(at("attest.t_r"), 8'500u);
}

TEST(JournalTrace, SpansAreOrderedOutermostFirstAtEqualStart) {
  EventJournal journal;
  const std::uint32_t task = journal.intern("task");
  journal.append(100, 1, 0, 0, K::kCpuSegment, task, 100);  // inner, recorded first
  journal.append(100, 1, 0, 0, K::kCpuSegment, task, 200);
  const auto spans = spans_named(journal, "task");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].end(), 300u);
  EXPECT_EQ(spans[1].end(), 200u);
}

TEST(JournalTrace, TracksAreComponentPlusActor) {
  EventJournal journal;
  const std::uint32_t a = journal.intern("dev-a");
  const std::uint32_t b = journal.intern("dev-b");
  const std::uint32_t task = journal.intern("task");
  journal.append(0, a, 0, 0, K::kCpuSegment, task, 20);
  journal.append(5, b, 0, 0, K::kCpuSegment, task, 5);
  journal.append(5, b, 0, 0, K::kCpuWait, task, 3);
  journal.append(9, a, 0, 0, K::kDeadlineMiss, 4, 1);

  const auto spans = spans_named(journal, "task");
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].track, "cpu/dev-a");
  EXPECT_EQ(spans[1].track, "cpu/dev-b");
  EXPECT_EQ(spans[2].track, "cpu/dev-b/wait");
  EXPECT_EQ(trace_events(journal).back().track, "app/dev-a");
}

TEST(JournalTrace, UnpairedLinkEventsYieldNoTransit) {
  EventJournal journal;
  journal.append(10, 1, 0, 0, K::kLinkDeliver, 4, 8);  // never sent
  journal.append(20, 1, 0, 0, K::kLinkSend, 5, 8);      // never delivered
  EXPECT_EQ(count_named(journal, "link.transit"), 0u);
  EXPECT_TRUE(spans_named(journal, "link.transit").empty());
}

TEST(JournalTrace, TransitWithEvictedSendIsNotReconstructed) {
  EventJournal journal(2);
  journal.append(0, 1, 0, 0, K::kLinkSend, 1, 8);
  journal.append(1, 1, 0, 0, K::kLinkSend, 2, 8);
  journal.append(3, 1, 0, 0, K::kLinkDeliver, 1, 8);  // evicts the first send
  EXPECT_EQ(journal.dropped(), 1u);
  EXPECT_TRUE(spans_named(journal, "link.transit").empty());
}

TEST(JournalTrace, QueryHelpers) {
  EventJournal journal;
  journal.append(1, 1, 0, 0, K::kSessionLateReport);
  journal.append(2, 1, 0, 0, K::kSessionLateReport);
  journal.append(3, 1, 0, 0, K::kSimQueueDepth, 4);
  journal.append(9, 1, 0, 0, K::kSimQueueDepth, 7);
  journal.append(5, 1, 0, 0, K::kSmarmRound, 1, 1);

  EXPECT_EQ(count_named(journal, "session.late_report"), 2u);
  EXPECT_EQ(count_named(journal, "missing"), 0u);
  ASSERT_TRUE(last_counter(journal, "sim.queue_depth").has_value());
  EXPECT_EQ(*last_counter(journal, "sim.queue_depth"), 7u);
  EXPECT_FALSE(last_counter(journal, "nope").has_value());
  EXPECT_EQ(spans_named(journal, "smarm.round").size(), 1u);
  EXPECT_EQ(trace_events(journal).size(), 5u);
}

// The journal is the trace sink: a bounded one keeps the newest events,
// and the derived trace shows only those, oldest first.
TEST(TraceSink, CapacityEvictsOldestFirst) {
  EventJournal journal(3);
  const std::uint32_t dev = journal.intern("prv");
  TimeNs t = 0;
  for (const char* name : {"e0", "e1", "e2", "e3", "e4"}) {
    journal.append(t++, dev, 0, 0, K::kCpuSegment, journal.intern(name), 1);
  }

  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.dropped(), 2u);
  EXPECT_EQ(count_named(journal, "e0"), 0u);
  EXPECT_EQ(count_named(journal, "e4"), 1u);
  const auto events = trace_events(journal);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().name, "e2");
}

TEST(TraceSink, ClearResetsEventsAndDropCount) {
  EventJournal journal(1);
  journal.append(0, 1, 0, 0, K::kSessionLateReport);
  journal.append(1, 1, 0, 0, K::kSessionLateReport);
  EXPECT_EQ(journal.dropped(), 1u);
  journal.clear();
  EXPECT_TRUE(journal.empty());
  EXPECT_TRUE(trace_events(journal).empty());
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_EQ(journal.capacity(), 1u);  // the policy survives clear()
}

TEST(JsonNumber, FormatsIntegersAndDoubles) {
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
}

}  // namespace
}  // namespace rasc::obs
