#pragma once
/// \file chrome_trace.hpp
/// Chrome trace_event view of an EventJournal.  The journal is the only
/// event recorder; this view derives from it the timeline a human reads
/// in chrome://tracing or Perfetto, so a scenario — or a whole fleet
/// replay — renders as the paper's Figure 1 / Figure 4 timelines.
///
/// Each retained event lands on the row "<component>/<actor>", where the
/// component is the kind name's prefix ("cpu/prv-0", "attest/prv-0",
/// "link/vrf->prv"):
///  - span kinds become "X" slices: CPU segments (named by process; waits
///    on "cpu/<device>/wait"), attest.session, attest.measure, ra.round,
///    smarm.round, and link.transit — a delivery paired with the latest
///    send of the same (link, message id); links sharing a name (a
///    fleet's per-device links) share that key, so those may mis-pair;
///  - attest.measure also yields the attest.t_s / t_e / t_r instants;
///  - an ra.round whose attest.session is retained yields the
///    ra.challenge (round -> session) and ra.report (session -> round)
///    flow arrows, matched by (prover, protocol counter);
///  - locked blocks and queue depth become "C" counters;
///  - link.send only opens transits; every other kind is an instant.
/// Args carry the journal payload a/b (meanings per kind in journal.hpp).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/journal.hpp"

namespace rasc::obs {

/// One derived Chrome trace_event.
struct TraceEvent {
  char phase = 'i';  ///< 'X' slice, 'i' instant, 'C' counter, 's'/'f' flow
  TimeNs time = 0;
  TimeNs duration = 0;  ///< 'X' only
  std::string track;
  std::string name;
  std::uint64_t flow_id = 0;  ///< 's'/'f' only
  std::vector<std::pair<std::string_view, std::uint64_t>> args;  ///< counter: {"value", n}

  TimeNs end() const noexcept { return time + duration; }
};

/// The trace events of every retained journal event, in journal order.
std::vector<TraceEvent> trace_events(const EventJournal& journal);

/// Chrome trace_event JSON (object format with "traceEvents"), loadable
/// in chrome://tracing and Perfetto.  Tracks map to tids in first-seen
/// order with thread_name metadata; timestamps are microseconds with
/// nanosecond fractions, so the export is deterministic byte-for-byte.
std::string to_chrome_json(const EventJournal& journal);
/// Write to_chrome_json() to `path`; returns false on I/O failure.
bool write_chrome_json(const EventJournal& journal, const std::string& path);

// -- queries over the derived events ------------------------------------------
/// Derived events (any phase) with the given name.
std::size_t count_named(const EventJournal& journal, std::string_view name);
/// "X" slices with the given name in start order, outermost first at
/// equal starts.
std::vector<TraceEvent> spans_named(const EventJournal& journal, std::string_view name);
/// Latest sample of a counter series, if any.
std::optional<std::uint64_t> last_counter(const EventJournal& journal,
                                          std::string_view name);

}  // namespace rasc::obs
