#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/scenario.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/metrics.hpp"

namespace rasc::apps {
namespace {

/// End-to-end observability check on the Section 2.5 scenario: run the
/// atomic fire-alarm experiment with a journal and metrics registry
/// attached, then cross-validate the three independent accounts of the
/// same run — scenario outcome, metrics counters and the timeline derived
/// from the journal.
TEST(FireAlarmObservability, TraceMetricsAndOutcomeAgree) {
  obs::EventJournal journal;
  obs::MetricsRegistry metrics;

  FireAlarmScenarioConfig config;
  config.modeled_memory_bytes = 1ull << 30;  // ~7.5 s atomic measurement
  config.mode = attest::ExecutionMode::kAtomic;
  config.journal = &journal;
  config.metrics = &metrics;

  const auto outcome = run_fire_alarm_scenario(config);

  // The atomic measurement stalls the sensor long enough to miss deadlines.
  EXPECT_GT(outcome.deadline_misses, 0u);

  // Metrics agree with the scenario outcome.
  ASSERT_NE(metrics.find_counter("fire_alarm.deadline_miss"), nullptr);
  EXPECT_EQ(metrics.find_counter("fire_alarm.deadline_miss")->value(),
            outcome.deadline_misses);
  const auto* delays = metrics.find_histogram("fire_alarm.sample_delay_ms");
  ASSERT_NE(delays, nullptr);
  EXPECT_EQ(delays->count(), metrics.find_counter("fire_alarm.samples")->value());
  EXPECT_NEAR(delays->max(), sim::to_millis(outcome.max_sample_delay), 1e-6);

  // The trace records one instant per missed deadline.
  EXPECT_EQ(obs::count_named(journal, "fire_alarm.deadline_miss"), outcome.deadline_misses);
  EXPECT_EQ(obs::count_named(journal, "fire_alarm.alarm_raised"), 1u);

  // Nested attestation spans: attest.measure sits inside attest.session.
  const auto sessions = obs::spans_named(journal, "attest.session");
  const auto measures = obs::spans_named(journal, "attest.measure");
  ASSERT_EQ(sessions.size(), 1u);
  ASSERT_EQ(measures.size(), 1u);
  const obs::TraceEvent& session = sessions.front();
  const obs::TraceEvent& measure = measures.front();
  EXPECT_EQ(session.track, "attest/prv-fire");
  EXPECT_EQ(measure.track, "attest/prv-fire");
  EXPECT_GE(measure.time, session.time);
  EXPECT_LE(measure.end(), session.end());
  EXPECT_EQ(measure.duration, static_cast<obs::TimeNs>(outcome.measurement_duration));
  EXPECT_EQ(obs::count_named(journal, "attest.t_s"), 1u);
  EXPECT_EQ(obs::count_named(journal, "attest.t_e"), 1u);
  EXPECT_EQ(obs::count_named(journal, "attest.t_r"), 1u);

  // Every executed sensor sample shows up as a CPU segment span; replay
  // the arrival schedule (FIFO, one sample per period) against the span
  // completion times to recompute the expected miss count independently.
  std::vector<obs::TraceEvent> samples;
  for (auto& span : obs::spans_named(journal, "app/fire-alarm")) {
    if (span.track == "cpu/prv-fire") samples.push_back(std::move(span));
  }
  ASSERT_EQ(samples.size(), metrics.find_counter("fire_alarm.samples")->value());
  ASSERT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                             [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                               return a.time < b.time;
                             }));
  const auto period = static_cast<obs::TimeNs>(config.sensor_period);
  const auto deadline = static_cast<obs::TimeNs>(config.sample_deadline);
  std::size_t expected_misses = 0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const obs::TimeNs scheduled_at = (k + 1) * period;
    ASSERT_GE(samples[k].end(), scheduled_at);
    if (samples[k].end() - scheduled_at > deadline) ++expected_misses;
  }
  EXPECT_EQ(expected_misses, outcome.deadline_misses);
}

TEST(FireAlarmObservability, InterruptibleModeMissesNothing) {
  obs::MetricsRegistry metrics;
  FireAlarmScenarioConfig config;
  config.mode = attest::ExecutionMode::kInterruptible;
  config.metrics = &metrics;

  const auto outcome = run_fire_alarm_scenario(config);
  EXPECT_EQ(outcome.deadline_misses, 0u);
  EXPECT_EQ(metrics.find_counter("fire_alarm.deadline_miss"), nullptr);
  EXPECT_GT(metrics.find_histogram("fire_alarm.sample_delay_ms")->count(), 0u);
}

}  // namespace
}  // namespace rasc::apps
