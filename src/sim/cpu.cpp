#include "src/sim/cpu.hpp"

#include <algorithm>

namespace rasc::sim {

void Cpu::make_ready(Process& p) {
  if (std::find(ready_.begin(), ready_.end(), &p) == ready_.end()) {
    ready_.push_back(&p);
    // The core is occupied: remember when this process started waiting so
    // the eventual dispatch can report the preemption wait.
    if (running_ != nullptr && ready_since_.find(&p) == ready_since_.end()) {
      ready_since_.emplace(&p, sim_.now());
    }
  }
  schedule_dispatch();
}

void Cpu::remove(Process& p) {
  ready_.erase(std::remove(ready_.begin(), ready_.end(), &p), ready_.end());
  ready_since_.erase(&p);
}

Duration Cpu::consumed(const std::string& name) const {
  const auto it = consumed_.find(name);
  return it == consumed_.end() ? 0 : it->second;
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

void Cpu::record_segment(Time start, const Process& p, Duration duration) {
  // consumed_ is bounded: once kMaxConsumedEntries distinct names exist,
  // new names aggregate under "(other)".
  auto it = consumed_.find(p.name());
  if (it != consumed_.end()) {
    it->second += duration;
  } else if (consumed_.size() < kMaxConsumedEntries) {
    consumed_.emplace(p.name(), duration);
  } else {
    consumed_["(other)"] += duration;
  }
  journal_span(obs::JournalEventKind::kCpuSegment, start, p, duration);
}

void Cpu::dispatch() {
  while (running_ == nullptr && !ready_.empty()) {
    // Highest priority wins; FIFO among equals (stable selection).
    auto best = ready_.begin();
    for (auto it = ready_.begin() + 1; it != ready_.end(); ++it) {
      if ((*it)->priority() > (*best)->priority()) best = it;
    }
    Process* p = *best;
    auto segment = p->next_segment();
    if (!segment) {
      // Parked: out of work until made ready again.
      ready_.erase(best);
      ready_since_.erase(p);
      continue;
    }
    running_ = p;
    busy_until_ = sim_.now() + segment->duration;
    const Time start = sim_.now();
    // Report how long this process waited for the core (segment-boundary
    // preemption latency, the paper's interrupt-latency axis).
    if (auto waited = ready_since_.find(p); waited != ready_since_.end()) {
      journal_span(obs::JournalEventKind::kCpuWait, waited->second, *p,
                   start - waited->second);
      ready_since_.erase(waited);
    }
    sim_.schedule_at(busy_until_, [this, p, start, seg = std::move(*segment)]() mutable {
      record_segment(start, *p, seg.duration);
      running_ = nullptr;
      if (seg.on_complete) seg.on_complete();
      dispatch();
    });
    return;
  }
}

}  // namespace rasc::sim
