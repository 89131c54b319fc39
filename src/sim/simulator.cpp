#include "src/sim/simulator.hpp"

#include <cstdio>

namespace rasc::sim {

std::string format_duration(Duration d) {
  char buf[64];
  if (d >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%.3f s", to_seconds(d));
  } else if (d >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(d) / kMillisecond);
  } else if (d >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.3f us", static_cast<double>(d) / kMicrosecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu ns", static_cast<unsigned long long>(d));
  }
  return buf;
}

EventHandle Simulator::schedule_at(Time t, Callback fn) {
  std::uint32_t index = free_head_;
  if (index != kNoSlot) {
    free_head_ = slot(index).next_free;
  } else {
    if (slot_count_ % kSlotsPerChunk == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    }
    index = slot_count_++;
  }
  Slot& s = slot(index);
  s.fn = std::move(fn);
  queue_.push(Entry{t < now_ ? now_ : t, next_seq_++, index, s.generation});
  return EventHandle{this, index, s.generation};
}

Simulator::Callback Simulator::release(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  Callback fn = std::move(s.fn);
  s.fn = nullptr;
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = index;
  return fn;
}

void Simulator::cancel(std::uint32_t index, std::uint32_t generation) noexcept {
  if (!live(index, generation)) return;
  // The queue entry stays until it would have fired (pending_events()
  // counts it); its generation no longer matches, so it is skipped.
  release(index);
}

bool Simulator::fire_next() {
  while (!queue_.empty()) {
    const Entry entry = queue_.top();
    queue_.pop();
    if (!live(entry.slot, entry.generation)) continue;  // cancelled
    // Moved out, and the slot released, before it runs: the callback sees
    // its handle as no longer pending and may reuse the slot.
    Callback fn = release(entry.slot);
    now_ = entry.time;
    ++events_fired_;
    if (journal_ != nullptr && events_fired_ % 4096 == 0) {
      journal_->append(now_, journal_->intern("queue"), 0, 0,
                       obs::JournalEventKind::kSimQueueDepth, queue_.size());
    }
    fn();
    return true;
  }
  return false;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t fired = 0;
  while (fired < limit && fire_next()) ++fired;
  return fired;
}

std::size_t Simulator::run_until(Time t_end) {
  std::size_t fired = 0;
  while (!queue_.empty()) {
    // Peek: skip cancelled entries without advancing time.
    const Entry& top = queue_.top();
    if (!live(top.slot, top.generation)) {
      queue_.pop();
      continue;
    }
    if (top.time > t_end) break;
    if (fire_next()) ++fired;
  }
  if (now_ < t_end) now_ = t_end;
  return fired;
}

}  // namespace rasc::sim
