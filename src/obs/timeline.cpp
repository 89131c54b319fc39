#include "src/obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/obs/health.hpp"

namespace rasc::obs {
namespace {

std::string ms_fixed(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string ms_offset(TimeNs t, TimeNs origin) {
  // Events can legitimately precede the round origin when a round was
  // reconstructed from a truncated journal; render those at +0.000.
  return "+" + ms_fixed(t >= origin ? t - origin : 0) + " ms";
}

std::string outcome_label(std::uint64_t a) {
  if (a < kRoundOutcomeCount) {
    return std::string(round_outcome_name(static_cast<RoundOutcome>(a)));
  }
  return "unresolved";
}

std::string span(const char* what, std::uint64_t value, TimeNs duration) {
  return std::string(what) + std::to_string(value) + " for " + ms_fixed(duration) + " ms";
}

/// Kind-specific argument rendering; keep each line self-describing so a
/// transcript reads without the journal schema at hand.
std::string describe(const JournalEvent& ev, const EventJournal& journal) {
  switch (ev.kind) {
    case JournalEventKind::kLinkSend:
    case JournalEventKind::kLinkDeliver:
      return "msg=" + std::to_string(ev.a) + " (" + std::to_string(ev.b) + " B)";
    case JournalEventKind::kLinkDrop:
    case JournalEventKind::kLinkPartitionDrop:
      return "msg=" + std::to_string(ev.a);
    case JournalEventKind::kLinkDuplicate:
      return "msg=" + std::to_string(ev.a) + " copy after " + ms_fixed(ev.b) + " ms";
    case JournalEventKind::kLinkCorrupt:
      return "msg=" + std::to_string(ev.a) + " byte " + std::to_string(ev.b);
    case JournalEventKind::kLinkReorder:
      return "msg=" + std::to_string(ev.a) + " held " + ms_fixed(ev.b) + " ms";
    case JournalEventKind::kSessionStart:
      return "max_attempts=" + std::to_string(ev.a) + " timeout=" + ms_fixed(ev.b) +
             " ms";
    case JournalEventKind::kSessionAttempt:
      return "#" + std::to_string(ev.a) + " counter=" + std::to_string(ev.b);
    case JournalEventKind::kSessionAttemptTimeout:
    case JournalEventKind::kSessionReplayRejected:
    case JournalEventKind::kSessionCorruptReport:
      return "#" + std::to_string(ev.a);
    case JournalEventKind::kSessionBackoff:
      return "after #" + std::to_string(ev.a) + ", " + ms_fixed(ev.b) + " ms";
    case JournalEventKind::kSessionLateReport:
      return "";
    case JournalEventKind::kSessionResolved:
      return outcome_label(ev.a) + ", " + ms_fixed(ev.b) + " ms wasted MP";
    case JournalEventKind::kCacheHit:
    case JournalEventKind::kCacheMiss:
      return "block=" + std::to_string(ev.a) + " gen=" + std::to_string(ev.b);
    case JournalEventKind::kDeadlineHit:
    case JournalEventKind::kDeadlineMiss:
      return "delay=" + ms_fixed(ev.a) + " ms";
    case JournalEventKind::kAlarmRaised:
      return "latency=" + ms_fixed(ev.a) + " ms";
    case JournalEventKind::kMtreeRehash:
      return "dirty_leaves=" + std::to_string(ev.a) + " nodes=" + std::to_string(ev.b);
    case JournalEventKind::kMtreeProof:
      return "leaves=[" + std::to_string(ev.a) + ", " +
             std::to_string(ev.a + ev.b) + ")";
    case JournalEventKind::kFleetHibernate:
      return "rounds=" + std::to_string(ev.a) + " pool=" + std::to_string(ev.b);
    case JournalEventKind::kFleetWake:
      return "wake #" + std::to_string(ev.a) + " pool=" + std::to_string(ev.b);
    case JournalEventKind::kCpuSegment:
    case JournalEventKind::kCpuWait:
      return journal.actor_name(static_cast<std::uint32_t>(ev.a)) + " for " +
             ms_fixed(ev.b) + " ms";
    case JournalEventKind::kProverSession:
    case JournalEventKind::kProtocolRound:
      return span("counter=", ev.a, ev.b);
    case JournalEventKind::kProverMeasure:
      return "t_s..t_e " + ms_fixed(ev.b) + " ms, lock held " + ms_fixed(ev.a) +
             " ms past t_e";
    case JournalEventKind::kRequestRejected: {
      static constexpr const char* kReasons[] = {"bad MAC", "replayed counter",
                                                 "MP busy"};
      return std::string(ev.a < 3 ? kReasons[ev.a] : "?") + ", counter=" +
             std::to_string(ev.b);
    }
    case JournalEventKind::kMemLockedBlocks:
      return "locked=" + std::to_string(ev.a);
    case JournalEventKind::kMemBlockedWrite:
      return "block=" + std::to_string(ev.a) + " writer=" + std::to_string(ev.b);
    case JournalEventKind::kSimQueueDepth:
      return "pending=" + std::to_string(ev.a);
    case JournalEventKind::kSeedReplayRejected:
    case JournalEventKind::kSeedBadReport:
    case JournalEventKind::kSeedMissingEpoch:
      return "epoch=" + std::to_string(ev.a);
    case JournalEventKind::kErasmusDeferral:
      return ev.a == 0 ? "MP busy" : "CPU busy";
    case JournalEventKind::kErasmusStored:
      return "counter=" + std::to_string(ev.a) + " history=" + std::to_string(ev.b);
    case JournalEventKind::kSmarmRound:
      return span("detected=", ev.a, ev.b);
  }
  return "";
}

void append_event_line(std::string& out, const JournalEvent& ev, TimeNs origin,
                       const EventJournal& journal) {
  char line[160];
  std::string what(journal_event_kind_name(ev.kind));
  std::string detail = describe(ev, journal);
  std::snprintf(line, sizeof(line), "  %12s  %-24s %s [%s]\n",
                ms_offset(ev.time, origin).c_str(), what.c_str(), detail.c_str(),
                journal.actor_name(ev.actor).c_str());
  out += line;
}

}  // namespace

std::vector<RoundTimeline> build_round_timelines(const EventJournal& journal) {
  // Pass 1: group session-tagged events exactly by (session, round).
  std::map<std::pair<std::uint32_t, std::uint64_t>, RoundTimeline> by_round;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const JournalEvent& ev = journal.at(i);
    if (ev.session == 0) continue;
    RoundTimeline& rt = by_round[{ev.session, ev.round}];
    if (rt.events.empty()) {
      rt.session = ev.session;
      rt.round = ev.round;
      rt.actor = ev.actor;
      rt.t_start = ev.time;
    }
    rt.t_resolved = ev.time;
    switch (ev.kind) {
      case JournalEventKind::kSessionStart:
        rt.t_start = ev.time;
        break;
      case JournalEventKind::kSessionAttempt:
        rt.attempts = std::max(rt.attempts, ev.a);
        break;
      case JournalEventKind::kSessionResolved:
        rt.outcome = ev.a;
        rt.wasted_measure_ns = ev.b;
        break;
      default:
        break;
    }
    rt.events.push_back(ev);
  }

  std::vector<RoundTimeline> rounds;
  rounds.reserve(by_round.size());
  for (auto& [key, rt] : by_round) rounds.push_back(std::move(rt));
  std::sort(rounds.begin(), rounds.end(),
            [](const RoundTimeline& a, const RoundTimeline& b) {
              if (a.t_start != b.t_start) return a.t_start < b.t_start;
              if (a.session != b.session) return a.session < b.session;
              return a.round < b.round;
            });

  // Pass 2: attribute untagged events (link, cache, app) to the round
  // whose [start, resolve] window contains them.
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const JournalEvent& ev = journal.at(i);
    if (ev.session != 0) continue;
    for (RoundTimeline& rt : rounds) {
      if (ev.time >= rt.t_start && ev.time <= rt.t_resolved) {
        rt.events.push_back(ev);
        break;
      }
    }
  }
  for (RoundTimeline& rt : rounds) {
    std::stable_sort(rt.events.begin(), rt.events.end(),
                     [](const JournalEvent& a, const JournalEvent& b) {
                       return a.time < b.time;
                     });
  }
  return rounds;
}

std::string explain_round(const EventJournal& journal, const RoundTimeline& round) {
  std::string out = "round " + std::to_string(round.round) + " on " +
                    journal.actor_name(round.actor) + ": " +
                    outcome_label(round.outcome) + " after " +
                    std::to_string(round.attempts) +
                    (round.attempts == 1 ? " attempt" : " attempts") + ", " +
                    ms_fixed(round.wasted_measure_ns) + " ms wasted MP\n";
  for (const JournalEvent& ev : round.events) {
    append_event_line(out, ev, round.t_start, journal);
  }
  return out;
}

std::string explain(const EventJournal& journal, bool only_problem_rounds) {
  std::string out;
  for (const RoundTimeline& rt : build_round_timelines(journal)) {
    bool clean = rt.resolved() &&
                 rt.outcome == static_cast<std::uint64_t>(RoundOutcome::kVerified) &&
                 rt.attempts <= 1;
    if (only_problem_rounds && clean) continue;
    if (!out.empty()) out += '\n';
    out += explain_round(journal, rt);
  }
  return out;
}

std::string render_journal_summary(const EventJournal& journal) {
  std::string out;
  if (journal.empty()) return out;
  TimeNs origin = journal.at(0).time;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    append_event_line(out, journal.at(i), origin, journal);
  }
  return out;
}

}  // namespace rasc::obs
