#pragma once
/// \file journal.hpp
/// Flight-recorder event journal: a bounded ring buffer of fixed-size
/// typed events keyed to simulated time — the one event recorder of the
/// stack.  It answers "what exactly happened, in order, to this
/// device/session/round": a structured, queryable record that a campaign
/// misjudge can be *explained* from (see timeline.hpp) and that renders
/// as a Chrome/Perfetto timeline (see chrome_trace.hpp).
///
/// Design constraints, matching the PR-4 hot-path ethos:
///  - events are POD (timestamp, interned actor id, session/round ids,
///    kind, two u64 args) — appending allocates nothing;
///  - the ring is preallocated; when full the OLDEST events are
///    overwritten first (flight-recorder semantics) and dropped() counts;
///  - the disabled path is a single null-pointer branch at each event
///    site (`if (auto* j = sim.journal()) ...`);
///  - NDJSON export is a pure function of the recorded events, so a
///    journal captured from a deterministic simulation is byte-identical
///    across runs and thread counts like every other artifact.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rasc::obs {

using TimeNs = std::uint64_t;  ///< nanoseconds of simulated time

/// Every instrumented site in the stack.  The two u64 args are
/// kind-specific; the meaning is documented per block below and rendered
/// by the explain renderer (timeline.cpp).
enum class JournalEventKind : std::uint8_t {
  // sim::Link — a = message id, b as noted.
  kLinkSend,           ///< b = payload bytes
  kLinkDeliver,        ///< b = payload bytes (fires once per delivered copy)
  kLinkDrop,           ///< b = payload bytes
  kLinkPartitionDrop,  ///< b = payload bytes
  kLinkDuplicate,      ///< b = extra transit ns of the trailing copy
  kLinkCorrupt,        ///< b = corrupted byte offset
  kLinkReorder,        ///< b = holdback delay ns
  // attest::ReliableSession — actor = prover device.
  kSessionStart,          ///< a = max attempts, b = response timeout ns
  kSessionAttempt,        ///< a = attempt number (1-based), b = protocol counter
  kSessionAttemptTimeout, ///< a = attempt number
  kSessionBackoff,        ///< a = attempt that failed, b = backoff ns
  kSessionReplayRejected, ///< a = attempt number
  kSessionCorruptReport,  ///< a = attempt number
  kSessionLateReport,     ///< report arrived after the round resolved
  kSessionResolved,       ///< a = RoundOutcome, b = wasted measure ns
  // attest digest cache — a = block index, b = generation.
  kCacheHit,
  kCacheMiss,
  // apps::FireAlarmTask — a = delay/latency ns.
  kDeadlineHit,
  kDeadlineMiss,
  kAlarmRaised,
  // mtree incremental measurement (appended at the end so existing
  // numeric payloads keep their values).
  kMtreeRehash,  ///< a = dirty leaves folded in, b = tree nodes re-hashed
  kMtreeProof,   ///< a = first covered leaf, b = covered leaf count
  // fleet stack hibernation — actor = prover device (appended at the end
  // so existing numeric payloads keep their values).
  kFleetHibernate,  ///< a = rounds resolved so far, b = live stacks after
  kFleetWake,       ///< a = wakes of this device so far, b = live stacks after
  // Timeline kinds (appended at the end so existing numeric payloads keep
  // their values).  A span is ONE event, appended once its extent is
  // known: time = span start, b = duration.
  kCpuSegment,      ///< actor = device; a = interned process name, b = duration
  kCpuWait,         ///< actor = device; a = interned process name, b = ready->dispatch wait
  kProverSession,   ///< actor = device; MP request..t_e: a = protocol counter, b = duration
  kProverMeasure,   ///< actor = device; time = t_s, a = t_r - t_e, b = t_e - t_s
  kProtocolRound,   ///< actor = prover device; challenge..verdict: a = counter, b = duration
  kRequestRejected, ///< actor = prover device; a = RequestRejection, b = counter
  kMemLockedBlocks, ///< actor = device; a = blocks currently locked
  kMemBlockedWrite, ///< actor = device; a = block, b = sim::Actor of the writer
  kSimQueueDepth,   ///< actor = "queue"; a = pending events (every 4096th dispatch)
  kSeedReplayRejected,  ///< actor = "vrf"; a = epoch
  kSeedBadReport,       ///< actor = "vrf"; a = epoch
  kSeedMissingEpoch,    ///< actor = "vrf"; a = epoch
  kErasmusDeferral,     ///< actor = device; a = ErasmusDeferral cause
  kErasmusStored,       ///< actor = device; a = report counter, b = history length
  kSmarmRound,          ///< actor = device; round = SMARM round, a = detected, b = duration
};

/// Why OnDemandProtocol refused a challenge request (kRequestRejected.a).
enum class RequestRejection : std::uint8_t { kBadMac, kReplayedCounter, kMeasurementBusy };

/// Why an ERASMUS tick did not measure (kErasmusDeferral.a).
enum class ErasmusDeferral : std::uint8_t { kMeasurementBusy, kCpuBusy };

/// Stable machine name ("link.drop", "session.resolved", ...).
std::string_view journal_event_kind_name(JournalEventKind kind);

struct JournalEvent {
  TimeNs time = 0;
  std::uint32_t actor = 0;    ///< interned name; 0 = unknown
  std::uint32_t session = 0;  ///< session instance id; 0 = none
  std::uint64_t round = 0;    ///< round sequence within the session; 0 = none
  JournalEventKind kind = JournalEventKind::kLinkSend;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<JournalEvent>,
              "journal events must append without allocation");

/// Conjunctive match over the event fields; unset members match anything.
struct JournalFilter {
  std::optional<JournalEventKind> kind;
  std::optional<std::uint32_t> actor;
  std::optional<std::uint32_t> session;
  std::optional<std::uint64_t> round;
  TimeNs t_min = 0;
  TimeNs t_max = UINT64_MAX;

  bool matches(const JournalEvent& ev) const noexcept {
    return (!kind || ev.kind == *kind) && (!actor || ev.actor == *actor) &&
           (!session || ev.session == *session) && (!round || ev.round == *round) &&
           ev.time >= t_min && ev.time <= t_max;
  }
};

class EventJournal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// The ring is fully preallocated here; append() never grows it.
  explicit EventJournal(std::size_t capacity = kDefaultCapacity);

  /// Reallocate the ring (contents are cleared; counters reset).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const noexcept { return ring_.size(); }

  /// Intern an actor name (device id, link label); ids are assigned in
  /// first-intern order starting at 1, so a deterministic wiring order
  /// yields deterministic ids.  Re-interning an existing name is a pure
  /// lookup.  Id 0 is reserved and renders as "?".
  std::uint32_t intern(std::string_view name);
  const std::string& actor_name(std::uint32_t id) const;

  /// O(1), allocation-free.  A full ring overwrites the oldest event.
  void append(const JournalEvent& ev) noexcept;
  void append(TimeNs time, std::uint32_t actor, std::uint32_t session,
              std::uint64_t round, JournalEventKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept {
    append(JournalEvent{time, actor, session, round, kind, a, b});
  }

  /// Events currently retained (<= capacity), oldest first.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const JournalEvent& at(std::size_t i) const noexcept {
    return ring_[(tail_ + i) % ring_.size()];
  }

  /// Lifetime counters: everything ever appended, and how many of those
  /// were overwritten by ring wrap-around.
  std::uint64_t appended() const noexcept { return appended_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  void clear();

  // -- query ------------------------------------------------------------------
  std::vector<JournalEvent> select(const JournalFilter& filter) const;
  std::size_t count(const JournalFilter& filter) const;
  /// First retained event matching, in append order (time order, except
  /// that a span kind is appended at its end but stamped with its start).
  std::optional<JournalEvent> first(const JournalFilter& filter) const;

  // -- export -----------------------------------------------------------------
  /// One JSON object per line, oldest first, keys in fixed order:
  /// {"t":<ns>,"actor":"<name>","kind":"<kind>","session":S,"round":R,
  ///  "a":A,"b":B}\n — deterministic byte-for-byte for a deterministic
  /// simulation.
  std::string to_ndjson() const;
  /// Write to_ndjson() to `path`; false on I/O failure.
  bool write_ndjson(const std::string& path) const;

 private:
  std::vector<JournalEvent> ring_;
  std::size_t tail_ = 0;  ///< index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
  /// Transparent hashing: intern() looks names up without building a
  /// std::string, so per-event interning (CPU process names) stays cheap.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::vector<std::string> names_;  ///< index 0 = "?"
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>> ids_;
};

/// Caches one interned actor id so instrumented hot paths pay the intern
/// lookup once per (journal, site) instead of per event.
class ActorId {
 public:
  std::uint32_t get(EventJournal& journal, std::string_view name) {
    if (journal_ != &journal) {
      id_ = journal.intern(name);
      journal_ = &journal;
    }
    return id_;
  }

 private:
  const EventJournal* journal_ = nullptr;
  std::uint32_t id_ = 0;
};

}  // namespace rasc::obs
