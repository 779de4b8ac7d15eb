// Shared JSON snapshot of a cross-process lock service, read entirely from
// the shm segment: registry lease states with heartbeats (from each pid's
// shm counter cell), per-pid journaled phases, per-stripe
// installed/refcnt/recovery state, the shm metrics counters and
// histograms, and the newest events of the
// crash-surviving per-pid event rings, merged by timestamp.
//
// Three consumers render the same bytes: tools/aml_stat (the live/orphaned
// inspector CLI), examples/shm_lock_service (prints its post-recovery
// snapshot), and the integration tests (parse the post-crash snapshot to
// assert the victim's last phase and the recovery counters survived).
// Everything here only *reads* the segment — safe against a live service
// and against an orphaned one (no process left alive).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "aml/ipc/process_registry.hpp"
#include "aml/ipc/shm_table.hpp"
#include "aml/obs/shm_metrics.hpp"

namespace aml::ipc {

struct StatOptions {
  std::size_t ring_tail = 64;  ///< newest ring events to include (0 = none)
  bool include_per_pid = true;
};

namespace stat_detail {

inline void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xF]
             << "0123456789abcdef"[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

inline const char* lease_state_name(ProcessRegistry::State s) {
  switch (s) {
    case ProcessRegistry::kFree: return "free";
    case ProcessRegistry::kLive: return "live";
    case ProcessRegistry::kRecovering: return "recovering";
    case ProcessRegistry::kZombie: return "zombie";
  }
  return "?";
}

inline void write_histogram(std::ostream& os,
                            const obs::LatencyHistogram::Snapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"mean\":" << h.mean << ",\"p50\":" << h.p50
     << ",\"p90\":" << h.p90 << ",\"p99\":" << h.p99 << "}";
}

inline void write_recovery(std::ostream& os,
                           const obs::ShmRecoverySnapshot& r) {
  os << "{\"forced_exits\":" << r.forced_exits
     << ",\"complete_grants\":" << r.complete_grants
     << ",\"aborts_on_behalf\":" << r.aborts_on_behalf
     << ",\"resignals\":" << r.resignals
     << ",\"zombie_retires\":" << r.zombie_retires
     << ",\"fa_completed\":" << r.fa_completed
     << ",\"fa_compensated\":" << r.fa_compensated
     << ",\"total\":" << r.total() << "}";
}

inline void write_counters(std::ostream& os, const obs::Counters& t) {
  os << "{\"acquisitions\":" << t.acquisitions << ",\"aborts\":" << t.aborts
     << ",\"spin_iterations\":" << t.spin_iterations
     << ",\"findnext_ascents\":" << t.findnext_ascents
     << ",\"instance_switches\":" << t.instance_switches
     << ",\"spin_node_recycles\":" << t.spin_node_recycles << "}";
}

}  // namespace stat_detail

/// Serialize the whole service state as one JSON object. Read-only against
/// the segment; `probe` is the dense pid used for the (pid-agnostic)
/// ShmSpace reads and need not be leased.
inline void write_stat_json(std::ostream& os, ShmNamedLockTable& table,
                            const StatOptions& opt = {}) {
  using stat_detail::json_string;
  const Pid probe = 0;
  const ShmTableConfig& cfg = table.config();
  obs::ShmMetrics& shm = table.shm_metrics();
  const std::uint64_t now = obs::ShmMetrics::now_ns();

  os << "{";
  os << "\"segment\":";
  json_string(os, table.arena().name());
  os << ",\"config\":{\"nprocs\":" << cfg.nprocs
     << ",\"stripes\":" << cfg.stripes
     << ",\"tree_width\":" << cfg.tree_width
     << ",\"find\":" << static_cast<int>(cfg.find)
     << ",\"ring_capacity\":" << cfg.ring_capacity
     << ",\"segment_bytes\":" << table.arena().bytes() << "}";

  // --- registry: lease states, heartbeats, journaled phases -------------
  os << ",\"registry\":[";
  for (Pid p = 0; p < cfg.nprocs; ++p) {
    if (p != 0) os << ",";
    ProcessRegistry& reg = table.registry();
    const ProcessRegistry::State st = reg.state(p);
    const std::uint64_t beat_ns = shm.last_ns(p);
    os << "{\"pid\":" << p << ",\"state\":\""
       << stat_detail::lease_state_name(st) << "\",\"os_pid\":" << reg.os_pid(p)
       << ",\"os_start\":" << reg.os_start(p)
       << ",\"heartbeat\":" << shm.heartbeat(p);
    if (beat_ns != 0 && now > beat_ns) {
      os << ",\"heartbeat_age_ns\":" << (now - beat_ns);
    }
    // The journaled phase per stripe — only where it is not idle, so the
    // common case stays compact and a victim's last phase stands out.
    os << ",\"phases\":[";
    bool first_phase = true;
    for (std::uint32_t s = 0; s < table.stripe_count(); ++s) {
      const Phase ph = table.stripe(s).peek_phase(p);
      if (ph == kIdle) continue;
      if (!first_phase) os << ",";
      first_phase = false;
      os << "{\"stripe\":" << s << ",\"phase\":\"" << phase_name(ph)
         << "\"}";
    }
    os << "]}";
  }
  os << "]";

  // --- stripes ----------------------------------------------------------
  os << ",\"stripes\":[";
  for (std::uint32_t s = 0; s < table.stripe_count(); ++s) {
    if (s != 0) os << ",";
    auto& stripe = table.stripe(s);
    // Same stranded-unit bound recover_dead() reports: refcnt units beyond
    // the journaled passages that could legitimately hold one.
    const std::uint64_t refcnt = stripe.peek_refcnt(probe);
    std::uint64_t holders = 0;
    for (Pid p = 0; p < cfg.nprocs; ++p) {
      const Phase ph = stripe.peek_phase(p);
      if (ph >= kPreJoin && ph <= kCleanup) holders++;
    }
    os << "{\"stripe\":" << s
       << ",\"installed\":" << stripe.peek_installed(probe)
       << ",\"refcnt\":" << refcnt
       << ",\"stranded_refcnt\":" << (refcnt > holders ? refcnt - holders : 0)
       << ",\"recovery_epoch\":" << stripe.recovery_epoch(probe)
       << ",\"recovery\":";
    stat_detail::write_recovery(os, shm.recovery_stripe(s));
    os << "}";
  }
  os << "]";

  // --- shm metrics ------------------------------------------------------
  os << ",\"counters\":{\"totals\":";
  stat_detail::write_counters(os, shm.totals());
  if (opt.include_per_pid) {
    os << ",\"per_pid\":[";
    for (Pid p = 0; p < cfg.nprocs; ++p) {
      if (p != 0) os << ",";
      stat_detail::write_counters(os, shm.pid_counters(p));
    }
    os << "]";
  }
  os << "}";

  os << ",\"recovery\":";
  stat_detail::write_recovery(os, shm.recovery_totals());
  os << ",\"sweep_latency\":";
  stat_detail::write_histogram(os, shm.sweep_latency());
  os << ",\"handoff\":";
  stat_detail::write_histogram(os, shm.handoff().snapshot());

  // --- ring tail: newest merged events; `seq` counts within the pid's ring
  std::uint64_t torn = 0;
  const std::vector<obs::Event> events = shm.ring_snapshot(&torn);
  os << ",\"ring\":{\"total\":" << shm.ring_total()
     << ",\"dropped\":" << shm.ring_dropped() << ",\"torn\":" << torn
     << ",\"tail\":[";
  const std::size_t tail =
      events.size() > opt.ring_tail ? events.size() - opt.ring_tail : 0;
  for (std::size_t i = tail; i < events.size(); ++i) {
    const obs::Event& e = events[i];
    if (i != tail) os << ",";
    os << "{\"seq\":" << e.seq << ",\"kind\":\""
       << obs::event_kind_name(e.kind) << "\",\"stripe\":" << e.stripe
       << ",\"pid\":" << e.pid;
    if (e.victim != obs::Event::kNoPid) os << ",\"victim\":" << e.victim;
    if (e.slot != obs::kNoSlot) os << ",\"slot\":" << e.slot;
    os << ",\"instance\":" << e.instance << ",\"t_ns\":" << e.ts
       << ",\"writer_os_pid\":" << e.writer_os_pid << "}";
  }
  os << "]}";
  os << "}\n";
}

}  // namespace aml::ipc
