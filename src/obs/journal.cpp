#include "src/obs/journal.hpp"

#include <fstream>

#include "src/obs/json.hpp"

namespace rasc::obs {

std::string_view journal_event_kind_name(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kLinkSend: return "link.send";
    case JournalEventKind::kLinkDeliver: return "link.deliver";
    case JournalEventKind::kLinkDrop: return "link.drop";
    case JournalEventKind::kLinkPartitionDrop: return "link.partition_drop";
    case JournalEventKind::kLinkDuplicate: return "link.duplicate";
    case JournalEventKind::kLinkCorrupt: return "link.corrupt";
    case JournalEventKind::kLinkReorder: return "link.reorder";
    case JournalEventKind::kSessionStart: return "session.start";
    case JournalEventKind::kSessionAttempt: return "session.attempt";
    case JournalEventKind::kSessionAttemptTimeout: return "session.attempt_timeout";
    case JournalEventKind::kSessionBackoff: return "session.backoff";
    case JournalEventKind::kSessionReplayRejected: return "session.replay_rejected";
    case JournalEventKind::kSessionCorruptReport: return "session.corrupt_report";
    case JournalEventKind::kSessionLateReport: return "session.late_report";
    case JournalEventKind::kSessionResolved: return "session.resolved";
    case JournalEventKind::kCacheHit: return "cache.hit";
    case JournalEventKind::kCacheMiss: return "cache.miss";
    case JournalEventKind::kDeadlineHit: return "app.deadline_hit";
    case JournalEventKind::kDeadlineMiss: return "app.deadline_miss";
    case JournalEventKind::kAlarmRaised: return "app.alarm_raised";
    case JournalEventKind::kMtreeRehash: return "mtree.rehash";
    case JournalEventKind::kMtreeProof: return "mtree.proof";
    case JournalEventKind::kFleetHibernate: return "fleet.hibernate";
    case JournalEventKind::kFleetWake: return "fleet.wake";
    case JournalEventKind::kCpuSegment: return "cpu.segment";
    case JournalEventKind::kCpuWait: return "cpu.wait";
    case JournalEventKind::kProverSession: return "attest.session";
    case JournalEventKind::kProverMeasure: return "attest.measure";
    case JournalEventKind::kProtocolRound: return "ra.round";
    case JournalEventKind::kRequestRejected: return "ra.request_rejected";
    case JournalEventKind::kMemLockedBlocks: return "mem.locked_blocks";
    case JournalEventKind::kMemBlockedWrite: return "mem.blocked_write";
    case JournalEventKind::kSimQueueDepth: return "sim.queue_depth";
    case JournalEventKind::kSeedReplayRejected: return "seed.replay_rejected";
    case JournalEventKind::kSeedBadReport: return "seed.bad_report";
    case JournalEventKind::kSeedMissingEpoch: return "seed.missing_epoch";
    case JournalEventKind::kErasmusDeferral: return "erasmus.deferral";
    case JournalEventKind::kErasmusStored: return "erasmus.stored";
    case JournalEventKind::kSmarmRound: return "smarm.round";
  }
  return "?";
}

EventJournal::EventJournal(std::size_t capacity) { set_capacity(capacity); }

void EventJournal::set_capacity(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, JournalEvent{});
  tail_ = 0;
  size_ = 0;
  appended_ = 0;
  dropped_ = 0;
}

std::uint32_t EventJournal::intern(std::string_view name) {
  if (names_.empty()) names_.emplace_back("?");
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

const std::string& EventJournal::actor_name(std::uint32_t id) const {
  static const std::string kUnknown = "?";
  if (id >= names_.size()) return kUnknown;
  return names_[id];
}

void EventJournal::append(const JournalEvent& ev) noexcept {
  const std::size_t cap = ring_.size();
  if (size_ == cap) {
    ring_[tail_] = ev;
    tail_ = (tail_ + 1) % cap;
    ++dropped_;
  } else {
    ring_[(tail_ + size_) % cap] = ev;
    ++size_;
  }
  ++appended_;
}

void EventJournal::clear() {
  tail_ = 0;
  size_ = 0;
  appended_ = 0;
  dropped_ = 0;
}

std::vector<JournalEvent> EventJournal::select(const JournalFilter& filter) const {
  std::vector<JournalEvent> out;
  for (std::size_t i = 0; i < size_; ++i) {
    const JournalEvent& ev = at(i);
    if (filter.matches(ev)) out.push_back(ev);
  }
  return out;
}

std::size_t EventJournal::count(const JournalFilter& filter) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (filter.matches(at(i))) ++n;
  }
  return n;
}

std::optional<JournalEvent> EventJournal::first(const JournalFilter& filter) const {
  for (std::size_t i = 0; i < size_; ++i) {
    const JournalEvent& ev = at(i);
    if (filter.matches(ev)) return ev;
  }
  return std::nullopt;
}

std::string EventJournal::to_ndjson() const {
  std::string out;
  out.reserve(size_ * 96);
  for (std::size_t i = 0; i < size_; ++i) {
    const JournalEvent& ev = at(i);
    out += "{\"t\":";
    out += std::to_string(ev.time);
    out += ",\"actor\":\"";
    out += json_escape(actor_name(ev.actor));
    out += "\",\"kind\":\"";
    out += journal_event_kind_name(ev.kind);
    out += "\",\"session\":";
    out += std::to_string(ev.session);
    out += ",\"round\":";
    out += std::to_string(ev.round);
    out += ",\"a\":";
    out += std::to_string(ev.a);
    out += ",\"b\":";
    out += std::to_string(ev.b);
    out += "}\n";
  }
  return out;
}

bool EventJournal::write_ndjson(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << to_ndjson();
  return static_cast<bool>(f);
}

}  // namespace rasc::obs
