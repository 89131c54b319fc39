#pragma once
/// \file fire_alarm.hpp
/// The paper's Section 2.5 safety-critical workload: a bare-metal
/// sensor-actuator fire alarm that samples a temperature sensor every
/// second and must raise the alarm promptly.  The task runs at high
/// priority, but a SMART-style atomic measurement still blocks it for the
/// whole measurement — the central conflict the paper examines.

#include <optional>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/device.hpp"

namespace rasc::apps {

struct FireAlarmConfig {
  sim::Duration period = sim::kSecond;            ///< sensor sampling period
  sim::Duration sample_cost = 50 * sim::kMicrosecond;  ///< CPU per sample
  int priority = 100;                             ///< above everything else
  /// A sample whose completion lags its scheduled arrival by more than
  /// this misses its deadline (the paper's "promptness" requirement for
  /// the safety-critical task).
  sim::Duration deadline = 100 * sim::kMillisecond;
};

class FireAlarmTask final : public sim::Process {
 public:
  FireAlarmTask(sim::Device& device, FireAlarmConfig config = {});

  /// Schedule sensor sampling jobs until `until`.
  void arm(sim::Time until);

  /// The fire physically starts at `t` (the sensor reads "hot" from then
  /// on); the next *executed* sample raises the alarm.
  void set_fire_time(sim::Time t) { fire_time_ = t; }

  std::optional<sim::Time> alarm_raised_at() const noexcept { return alarm_at_; }

  /// Time from fire outbreak to alarm; nullopt if no alarm yet.
  std::optional<sim::Duration> alarm_latency() const;

  std::size_t samples_taken() const noexcept { return sample_delays_ms_.count(); }

  /// Worst observed delay between a sample's scheduled arrival and its
  /// completion (availability of the critical task under attestation).
  sim::Duration max_sample_delay() const noexcept { return max_delay_; }

  /// Samples whose delay exceeded config.deadline.
  std::size_t deadline_misses() const noexcept { return deadline_misses_; }

  /// Every executed sample's delay in milliseconds (p50/p95/p99 response
  /// latency), on Histogram::default_latency_bounds_ms().
  const obs::Histogram& sample_delays_ms() const noexcept { return sample_delays_ms_; }

  // sim::Process
  std::optional<sim::Segment> next_segment() override;

 private:
  void complete_sample(sim::Time scheduled_at);

  sim::Device& device_;
  FireAlarmConfig config_;
  obs::ActorId journal_actor_;      ///< journal id of the host device
  std::vector<sim::Time> pending_;  ///< FIFO of arrival times awaiting CPU
  std::optional<sim::Time> fire_time_;
  std::optional<sim::Time> alarm_at_;
  sim::Duration max_delay_ = 0;
  std::size_t deadline_misses_ = 0;
  obs::Histogram sample_delays_ms_{obs::Histogram::default_latency_bounds_ms()};
};

}  // namespace rasc::apps
