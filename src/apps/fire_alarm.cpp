#include "src/apps/fire_alarm.hpp"

namespace rasc::apps {

FireAlarmTask::FireAlarmTask(sim::Device& device, FireAlarmConfig config)
    : sim::Process("app/fire-alarm", config.priority), device_(device), config_(config) {}

void FireAlarmTask::arm(sim::Time until) {
  auto& sim = device_.sim();
  // Every period after now, up to and including `until`.
  const std::size_t count = until > sim.now() ? (until - sim.now()) / config_.period : 0;
  sim.schedule_every(sim.now() + config_.period, config_.period, count, [this] {
    pending_.push_back(device_.sim().now());
    device_.cpu().make_ready(*this);
  });
}

std::optional<sim::Segment> FireAlarmTask::next_segment() {
  if (pending_.empty()) return std::nullopt;
  const sim::Time scheduled_at = pending_.front();
  pending_.erase(pending_.begin());
  return sim::Segment{config_.sample_cost,
                      [this, scheduled_at] { complete_sample(scheduled_at); }};
}

void FireAlarmTask::complete_sample(sim::Time scheduled_at) {
  const sim::Time now = device_.sim().now();
  const sim::Duration delay = now - scheduled_at;
  if (delay > max_delay_) max_delay_ = delay;
  sample_delays_ms_.record(sim::to_millis(delay));
  const bool missed = delay > config_.deadline;
  if (missed) ++deadline_misses_;
  if (auto* j = device_.sim().journal()) {
    j->append(now, journal_actor_.get(*j, device_.id()), 0, 0,
              missed ? obs::JournalEventKind::kDeadlineMiss
                     : obs::JournalEventKind::kDeadlineHit,
              delay, config_.deadline);
  }
  // The sensor reads the *current* ambient state: a fire that started any
  // time before this sample executes is seen now.
  if (fire_time_ && now >= *fire_time_ && !alarm_at_) {
    alarm_at_ = now;
    if (auto* j = device_.sim().journal()) {
      j->append(now, journal_actor_.get(*j, device_.id()), 0, 0,
                obs::JournalEventKind::kAlarmRaised, now - *fire_time_, 0);
    }
  }
}

std::optional<sim::Duration> FireAlarmTask::alarm_latency() const {
  if (!alarm_at_ || !fire_time_) return std::nullopt;
  return *alarm_at_ - *fire_time_;
}

}  // namespace rasc::apps
