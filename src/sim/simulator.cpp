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

std::uint32_t Simulator::acquire() {
  std::uint32_t index = free_head_;
  if (index != kNoSlot) {
    free_head_ = slot(index).next_free;
    return index;
  }
  if (slot_count_ % kSlotsPerChunk == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
  }
  return slot_count_++;
}

EventHandle Simulator::schedule_at(Time t, Callback fn) {
  const std::uint32_t index = acquire();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  queue_.push(Entry{t < now_ ? now_ : t, next_seq_++, index, s.generation});
  return EventHandle{this, index, s.generation};
}

void Simulator::schedule_every(Time first, Duration period, std::size_t count, Callback fn) {
  if (count == 0) return;
  const std::uint32_t index = acquire();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.period = period;
  s.unqueued = count - 1;
  unqueued_ += count - 1;
  queue_.push(Entry{first < now_ ? now_ : first, next_seq_, index, s.generation});
  next_seq_ += count;
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
    now_ = entry.time;
    ++events_fired_;
    if (journal_ != nullptr && events_fired_ % 4096 == 0) {
      journal_->append(now_, journal_->intern("queue"), 0, 0,
                       obs::JournalEventKind::kSimQueueDepth, pending_events());
    }
    Slot& s = slot(entry.slot);
    if (s.unqueued == 0) {
      // Moved out, and the slot released, before it runs: the callback
      // sees its handle as no longer pending and may reuse the slot.
      Callback fn = release(entry.slot);
      fn();
    } else {
      // A series queues its next arrival on the next reserved sequence
      // number (pending_events() is unchanged) and runs in place.
      --s.unqueued;
      --unqueued_;
      queue_.push(Entry{now_ + s.period, entry.seq + 1, entry.slot, entry.generation});
      s.fn();
    }
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
