#include "src/obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "src/obs/json.hpp"

namespace rasc::obs {

namespace {

using K = JournalEventKind;

/// 'X' for spans (b = duration; a link delivery spans from its send),
/// 'C' for sampled series, 0 for link.send (it only opens transits), 'i'
/// for everything else.
char phase_of(JournalEventKind kind) {
  switch (kind) {
    case K::kLinkSend: return 0;
    case K::kLinkDeliver:
    case K::kCpuSegment:
    case K::kCpuWait:
    case K::kProverSession:
    case K::kProverMeasure:
    case K::kProtocolRound:
    case K::kSmarmRound: return 'X';
    case K::kMemLockedBlocks:
    case K::kSimQueueDepth: return 'C';
    default: return 'i';
  }
}

/// Trace name: the kind name, except where the timeline keeps a more
/// specific one (the fire alarm's events, a link's in-flight slice).
std::string_view trace_name(JournalEventKind kind) {
  switch (kind) {
    case K::kLinkDeliver: return "link.transit";
    case K::kDeadlineHit: return "fire_alarm.deadline_hit";
    case K::kDeadlineMiss: return "fire_alarm.deadline_miss";
    case K::kAlarmRaised: return "fire_alarm.alarm_raised";
    default: return journal_event_kind_name(kind);
  }
}

/// Chrome trace timestamps are microseconds; render ns exactly as a
/// fixed-point decimal so the export is deterministic.
std::string micros_fixed(TimeNs ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::vector<TraceEvent> trace_events(const EventJournal& journal) {
  using Key = std::pair<std::uint32_t, std::uint64_t>;
  std::map<Key, TimeNs> sent_at;                      ///< (link, msg id) -> latest send
  std::map<Key, std::pair<TimeNs, TimeNs>> sessions;  ///< (prover, counter) -> span
  std::uint64_t next_flow_id = 1;
  std::vector<TraceEvent> out;
  out.reserve(journal.size());
  const auto push = [&out](char phase, TimeNs time, std::string track, std::string name) {
    TraceEvent& ev = out.emplace_back();
    ev.phase = phase;
    ev.time = time;
    ev.track = std::move(track);
    ev.name = std::move(name);
    return &ev;
  };

  for (std::size_t i = 0; i < journal.size(); ++i) {
    const JournalEvent& ev = journal.at(i);
    if (ev.kind == K::kLinkSend) {
      sent_at[{ev.actor, ev.a}] = ev.time;
      continue;
    }
    const char phase = phase_of(ev.kind);
    const std::string_view kind_name = journal_event_kind_name(ev.kind);
    const std::string& actor = journal.actor_name(ev.actor);
    const std::string track =
        std::string(kind_name.substr(0, kind_name.find('.'))) + "/" + actor;
    TimeNs start = ev.time;
    if (ev.kind == K::kLinkDeliver) {
      const auto sent = sent_at.find({ev.actor, ev.a});
      if (sent == sent_at.end()) continue;  // the send left the ring
      start = sent->second;
    }

    const bool cpu = ev.kind == K::kCpuSegment || ev.kind == K::kCpuWait;
    TraceEvent* te = push(phase, start, ev.kind == K::kCpuWait ? track + "/wait" : track,
                          cpu ? journal.actor_name(static_cast<std::uint32_t>(ev.a))
                              : std::string(trace_name(ev.kind)));
    if (phase == 'X') te->duration = ev.kind == K::kLinkDeliver ? ev.time - start : ev.b;
    // Args carry the journal payload (meanings per kind in journal.hpp);
    // a span's b is its duration and a CPU span's a is its name.
    if (phase == 'C') {
      te->args.emplace_back("value", ev.a);
    } else if (!cpu) {
      te->args.emplace_back("a", ev.a);
      if (phase != 'X' || ev.kind == K::kLinkDeliver) te->args.emplace_back("b", ev.b);
    }
    if (ev.round != 0) te->args.emplace_back("round", ev.round);

    if (ev.kind == K::kProverMeasure) {
      push('i', ev.time, track, "attest.t_s");
      push('i', ev.time + ev.b, track, "attest.t_e");
      push('i', ev.time + ev.b + ev.a, track, "attest.t_r");
    } else if (ev.kind == K::kProverSession) {
      sessions[{ev.actor, ev.a}] = {ev.time, ev.time + ev.b};
    } else if (ev.kind == K::kProtocolRound) {
      // Challenge: round start -> session start; report: session end ->
      // round end.  Ids are unique across the trace (counters repeat
      // across a fleet's devices).
      const auto mp = sessions.find({ev.actor, ev.a});
      if (mp == sessions.end()) continue;
      const std::string prover = "attest/" + actor;
      const auto [mp_start, mp_end] = mp->second;
      const std::uint64_t challenge = next_flow_id++;
      const std::uint64_t report = next_flow_id++;
      push('s', ev.time, track, "ra.challenge")->flow_id = challenge;
      push('f', mp_start, prover, "ra.challenge")->flow_id = challenge;
      push('s', mp_end, prover, "ra.report")->flow_id = report;
      push('f', ev.time + ev.b, track, "ra.report")->flow_id = report;
    }
  }
  return out;
}

std::string to_chrome_json(const EventJournal& journal) {
  const std::vector<TraceEvent> events = trace_events(journal);
  const auto metadata = [](std::string_view name, std::size_t tid, std::string_view value) {
    return "{\"name\":\"" + std::string(name) + "\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" + json_escape(value) + "\"}}";
  };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" +
                    metadata("process_name", 0, "rasc simulated device");
  // Track -> tid in first-seen order (deterministic across runs).
  std::unordered_map<std::string_view, std::size_t> tids;
  for (const TraceEvent& ev : events) {
    if (tids.emplace(ev.track, tids.size() + 1).second) {
      out.append(",").append(metadata("thread_name", tids.size(), ev.track));
    }
  }
  for (const TraceEvent& ev : events) {
    const bool flow = ev.phase == 's' || ev.phase == 'f';
    out += ",{\"name\":\"" + json_escape(ev.name) + (flow ? "\",\"cat\":\"flow" : "") +
           "\",\"ph\":\"" + ev.phase + "\"";
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    if (ev.phase == 'X') out += ",\"dur\":" + micros_fixed(ev.duration);
    // A flow finish binds to its enclosing slice, so the arrow lands on
    // the span rather than on the next one to start.
    if (ev.phase == 'f') out += ",\"bp\":\"e\"";
    if (flow) out += ",\"id\":" + std::to_string(ev.flow_id);
    out += ",\"ts\":" + micros_fixed(ev.time) + ",\"pid\":1,\"tid\":" +
           std::to_string(tids[ev.track]);
    for (std::size_t i = 0; i < ev.args.size(); ++i) {
      out += (i == 0 ? ",\"args\":{\"" : ",\"") + std::string(ev.args[i].first) + "\":" +
             std::to_string(ev.args[i].second);
    }
    out += ev.args.empty() ? "}" : "}}";
  }
  return out + "]}";
}

bool write_chrome_json(const EventJournal& journal, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << to_chrome_json(journal) << '\n';
  return static_cast<bool>(out);
}

std::size_t count_named(const EventJournal& journal, std::string_view name) {
  const auto events = trace_events(journal);
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [&](const TraceEvent& ev) { return ev.name == name; }));
}

std::vector<TraceEvent> spans_named(const EventJournal& journal, std::string_view name) {
  std::vector<TraceEvent> out;
  for (TraceEvent& ev : trace_events(journal)) {
    if (ev.phase == 'X' && ev.name == name) out.push_back(std::move(ev));
  }
  std::stable_sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.time != b.time ? a.time < b.time : a.end() > b.end();  // outermost first
  });
  return out;
}

std::optional<std::uint64_t> last_counter(const EventJournal& journal,
                                          std::string_view name) {
  const auto events = trace_events(journal);
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->phase == 'C' && it->name == name) return it->args.front().second;
  }
  return std::nullopt;
}

}  // namespace rasc::obs
