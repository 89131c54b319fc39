#include "src/sim/cpu.hpp"

#include <algorithm>

namespace rasc::sim {

void Cpu::make_ready(Process& p) {
  const auto listed = [&p](const Ready& r) { return r.process == &p; };
  if (std::none_of(ready_.begin(), ready_.end(), listed)) {
    // The core is occupied: remember when this process started waiting so
    // the eventual dispatch can report the preemption wait.
    ready_.push_back({&p, running_ != nullptr ? sim_.now() : kNotWaiting});
  }
  schedule_dispatch();
}

void Cpu::remove(Process& p) {
  std::erase_if(ready_, [&p](const Ready& r) { return r.process == &p; });
}

Duration Cpu::consumed(const std::string& name) const {
  for (const auto& [n, total] : consumed_) {
    if (n == name) return total;
  }
  return 0;
}

Duration& Cpu::consumed_total(std::string_view name) {
  const auto named = [this](std::string_view n) {
    return std::find_if(consumed_.begin(), consumed_.end(),
                        [n](const auto& entry) { return entry.first == n; });
  };
  auto it = named(name);
  // Bounded: once kMaxConsumedEntries distinct names exist, new names
  // aggregate under "(other)".
  if (it == consumed_.end() && consumed_.size() >= kMaxConsumedEntries) {
    name = "(other)";
    it = named(name);
  }
  if (it == consumed_.end()) return consumed_.emplace_back(name, 0).second;
  return it->second;
}

void Cpu::journal_span(obs::JournalEventKind kind, Time start, const Process& p,
                       Duration duration) {
  if (auto* j = sim_.journal()) {
    j->append(start, j->intern(owner_), 0, 0, kind, j->intern(p.name()),
              duration);
  }
}

void Cpu::schedule_dispatch() {
  if (dispatch_pending_ || running_ != nullptr) return;
  dispatch_pending_ = true;
  sim_.schedule_at(sim_.now(), [this] {
    dispatch_pending_ = false;
    dispatch();
  });
}

void Cpu::complete_segment() {
  consumed_total(running_->name()) += segment_.duration;
  journal_span(obs::JournalEventKind::kCpuSegment, segment_start_, *running_,
               segment_.duration);
  running_ = nullptr;
  // Moved out before it runs, so the dispatch below may reuse segment_.
  const std::function<void()> done = std::move(segment_.on_complete);
  if (done) done();
  dispatch();
}

void Cpu::dispatch() {
  while (running_ == nullptr && !ready_.empty()) {
    // Highest priority wins; FIFO among equals (stable selection).
    auto best = ready_.begin();
    for (auto it = ready_.begin() + 1; it != ready_.end(); ++it) {
      if (it->process->priority() > best->process->priority()) best = it;
    }
    Process* p = best->process;
    auto segment = p->next_segment();
    if (!segment) {
      // Parked: out of work until made ready again.
      ready_.erase(best);
      continue;
    }
    running_ = p;
    segment_start_ = sim_.now();
    segment_ = std::move(*segment);
    // Report how long this process waited for the core (segment-boundary
    // preemption latency, the paper's interrupt-latency axis).
    if (best->waiting_since != kNotWaiting) {
      journal_span(obs::JournalEventKind::kCpuWait, best->waiting_since, *p,
                   segment_start_ - best->waiting_since);
      best->waiting_since = kNotWaiting;
    }
    sim_.schedule_at(busy_until(), [this] { complete_segment(); });
    return;
  }
}

}  // namespace rasc::sim
