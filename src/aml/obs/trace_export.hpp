// Passage tracer: assembles per-passage spans from an event stream (either
// sink's per-pid rings merged by timestamp) and emits them as Chrome trace
// event JSON, so a whole crash-and-recover episode — the victim's doorway,
// its grant, the moment it died, and the survivor's forced close — renders
// on one Perfetto timeline.
//
// Span model: one PassageSpan per attempt, keyed by the acting lock pid.
//   doorway:  enter .. granted (or terminal, if never granted)
//   cs:       granted .. terminal
//   terminal: exit / abort by the owner, or a recovery arm executed by a
//             survivor on the victim's behalf — in which case the span is
//             closed *forced*, annotated with the recovering pid and the
//             dispatch arm, which is exactly what an operator needs to see
//             on the victim's track after a SIGKILL.
// Chrome mapping: trace pid = stripe (each stripe is a track group), trace
// tid = lock pid. Spans are "X" complete events (doorway and cs nest);
// recovery arms and instance switches are additionally instant events on
// the executing pid's track. Timestamps are microseconds relative to the
// first event, reading each event's `ts` as ns: the shm ring's
// CLOCK_MONOTONIC stamps (one timebase per host, so cross-process spans line
// up), or whatever clock an in-process Metrics sink was given.
#pragma once

#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "aml/model/types.hpp"
#include "aml/obs/events.hpp"

namespace aml::obs {

struct PassageSpan {
  model::Pid pid = 0;          ///< whose passage this is (the victim, for
                               ///  forced closes)
  std::uint32_t stripe = 0;
  std::uint32_t slot = kNoSlot;
  std::uint32_t instance = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t granted_ns = 0;  ///< 0 when never granted
  std::uint64_t end_ns = 0;      ///< 0 while unclosed
  bool granted = false;
  bool closed = false;
  bool forced = false;           ///< closed by a survivor's recovery arm
  EventKind close_kind = EventKind::kEnter;  ///< terminal event kind
  model::Pid recovered_by = Event::kNoPid;   ///< executor, when forced
};

/// Fold the event stream into spans. Events must be in time order (as
/// ring_snapshot() merges them). Robust to a wrapped ring: a grant or
/// terminal whose opening event was overwritten still yields a (partial)
/// span rather than being dropped, so the tail of a long run stays useful.
inline std::vector<PassageSpan> assemble_passage_spans(
    const std::vector<Event>& events) {
  std::vector<PassageSpan> spans;
  std::unordered_map<model::Pid, std::size_t> open;  // pid -> span index

  const auto open_span = [&](const Event& e, model::Pid pid) {
    PassageSpan s;
    s.pid = pid;
    s.stripe = e.stripe;
    s.slot = e.slot;
    s.instance = e.instance;
    s.begin_ns = e.ts;
    spans.push_back(s);
    open[pid] = spans.size() - 1;
    return spans.size() - 1;
  };

  const auto close_span = [&](const Event& e, model::Pid victim,
                              bool forced) {
    auto it = open.find(victim);
    std::size_t idx;
    if (it == open.end()) {
      // Opening event lost to ring wrap (or, for a zombie retire, the
      // victim died before journaling an attempt): synthesize a span so
      // the terminal still shows on the timeline.
      idx = open_span(e, victim);
      spans[idx].slot = e.slot;
    } else {
      idx = it->second;
      open.erase(it);
    }
    PassageSpan& s = spans[idx];
    s.end_ns = e.ts;
    s.closed = true;
    s.close_kind = e.kind;
    s.forced = forced;
    if (forced) s.recovered_by = e.pid;
    if (e.kind == EventKind::kCompleteGrant && !s.granted) {
      // The survivor completed the victim's grant before exiting on its
      // behalf: the passage *was* granted, at recovery time.
      s.granted = true;
      s.granted_ns = e.ts;
    }
    open.erase(victim);
  };

  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kEnter: {
        // A fresh attempt while one is still open means the opener's
        // terminal was lost: leave the stale span unclosed and move on.
        open.erase(e.pid);
        open_span(e, e.pid);
        break;
      }
      case EventKind::kGranted: {
        auto it = open.find(e.pid);
        const std::size_t idx =
            it != open.end() ? it->second : open_span(e, e.pid);
        spans[idx].granted = true;
        spans[idx].granted_ns = e.ts;
        if (spans[idx].slot == kNoSlot) spans[idx].slot = e.slot;
        break;
      }
      case EventKind::kAbort:
      case EventKind::kExit:
        close_span(e, e.pid, /*forced=*/false);
        break;
      case EventKind::kForcedExit:
      case EventKind::kCompleteGrant:
      case EventKind::kAbortOnBehalf:
      case EventKind::kResignal:
      case EventKind::kZombieRetire:
      case EventKind::kFaCompleted:
      case EventKind::kFaCompensated:
        close_span(e, e.victim, /*forced=*/true);
        break;
      case EventKind::kSwitch:
      case EventKind::kReentry:
        // Instants, not spans: switches are stripe-local blips, re-entry
        // is a whole-service transition.
        break;
    }
  }
  return spans;
}

namespace detail {

inline double trace_us(std::uint64_t ns, std::uint64_t base_ns) {
  return static_cast<double>(ns - base_ns) / 1000.0;
}

inline void write_span_args(std::ostream& os, const PassageSpan& s) {
  os << "{\"pid\":" << s.pid << ",\"stripe\":" << s.stripe;
  if (s.slot != kNoSlot) os << ",\"slot\":" << s.slot;
  os << ",\"instance\":" << s.instance
     << ",\"granted\":" << (s.granted ? "true" : "false")
     << ",\"forced\":" << (s.forced ? "true" : "false");
  if (s.closed) {
    os << ",\"outcome\":\"" << event_kind_name(s.close_kind) << "\"";
  } else {
    os << ",\"unclosed\":true";
  }
  if (s.forced && s.recovered_by != Event::kNoPid) {
    os << ",\"recovered_by\":" << s.recovered_by;
  }
  os << "}";
}

}  // namespace detail

/// Emit the stream as Chrome trace-event JSON (the {"traceEvents":[...]}
/// object form Perfetto and chrome://tracing both load).
inline void write_chrome_trace(std::ostream& os,
                               const std::vector<Event>& events) {
  std::uint64_t base_ns = ~std::uint64_t{0};
  std::uint64_t last_ns = 0;
  for (const Event& e : events) {
    if (e.ts < base_ns) base_ns = e.ts;
    if (e.ts > last_ns) last_ns = e.ts;
  }
  if (events.empty()) base_ns = 0;

  const std::vector<PassageSpan> spans = assemble_passage_spans(events);

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Track naming: one trace-pid per stripe, one trace-tid per lock pid.
  std::vector<std::uint32_t> stripes_seen;
  for (const PassageSpan& s : spans) {
    bool seen = false;
    for (std::uint32_t x : stripes_seen) seen = seen || x == s.stripe;
    if (!seen) stripes_seen.push_back(s.stripe);
  }
  for (std::uint32_t stripe : stripes_seen) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << stripe
       << ",\"args\":{\"name\":\"stripe " << stripe << "\"}}";
  }

  for (const PassageSpan& s : spans) {
    const std::uint64_t end = s.closed ? s.end_ns : last_ns;
    sep();
    os << "{\"name\":\"passage\",\"ph\":\"X\",\"pid\":" << s.stripe
       << ",\"tid\":" << s.pid
       << ",\"ts\":" << detail::trace_us(s.begin_ns, base_ns)
       << ",\"dur\":" << detail::trace_us(end, s.begin_ns) << ",\"args\":";
    detail::write_span_args(os, s);
    os << "}";
    if (s.granted && s.granted_ns != 0) {
      sep();
      os << "{\"name\":\"cs\",\"ph\":\"X\",\"pid\":" << s.stripe
         << ",\"tid\":" << s.pid
         << ",\"ts\":" << detail::trace_us(s.granted_ns, base_ns)
         << ",\"dur\":" << detail::trace_us(end, s.granted_ns)
         << ",\"args\":";
      detail::write_span_args(os, s);
      os << "}";
    }
  }

  for (const Event& e : events) {
    const bool recovery = event_is_recovery(e.kind);
    if (!recovery && e.kind != EventKind::kSwitch) continue;
    sep();
    os << "{\"name\":\"" << event_kind_name(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.stripe
       << ",\"tid\":" << e.pid
       << ",\"ts\":" << detail::trace_us(e.ts, base_ns)
       << ",\"args\":{";
    if (recovery) {
      os << "\"victim\":" << e.victim << ",\"executor\":" << e.pid
         << ",\"arm\":\"" << event_kind_name(e.kind) << "\"";
    } else {
      os << "\"instance\":" << e.instance;
    }
    os << "}}";
  }

  os << "\n]}\n";
}

}  // namespace aml::obs
