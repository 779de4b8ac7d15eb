#include "aml/harness/audit.hpp"

#include <map>
#include <sstream>

#include "aml/pal/config.hpp"

namespace aml::harness {

namespace {

AuditReport audit_common(const std::vector<obs::Event>& events,
                         bool one_shot) {
  AuditReport report;
  bool inside = false;
  model::Pid holder = model::kNoPid;
  std::map<model::Pid, std::uint64_t> acquires_by_pid;
  std::map<model::Pid, std::int64_t> open_attempts;  // doorways - resolutions
  bool have_last_slot = false;
  std::uint32_t last_slot = 0;

  for (const obs::Event& e : events) {
    switch (e.kind) {
      case obs::EventKind::kEnter:
        report.doorways++;
        open_attempts[e.pid]++;
        break;
      case obs::EventKind::kGranted:
        report.acquires++;
        acquires_by_pid[e.pid]++;
        open_attempts[e.pid]--;
        if (inside) report.mutex_ok = false;  // overlap
        inside = true;
        holder = e.pid;
        if (have_last_slot && e.slot <= last_slot) {
          report.fcfs_inversions++;
        }
        last_slot = e.slot;
        have_last_slot = true;
        break;
      case obs::EventKind::kExit:
        report.releases++;
        if (!inside || holder != e.pid) report.conservation_ok = false;
        inside = false;
        holder = model::kNoPid;
        break;
      case obs::EventKind::kAbort:
        report.aborts++;
        open_attempts[e.pid]--;
        break;
      default:
        break;  // switches and recovery arms are not attempt steps
    }
  }
  if (inside) report.conservation_ok = false;  // acquire without release
  if (report.acquires != report.releases) report.conservation_ok = false;
  // Starvation freedom: per process, every doorway must have resolved into
  // an acquire or an abort by the end of the history. (Aborts recorded
  // before the doorway — an attempt abandoned on the spin-node wait, before
  // joining an instance — make the per-pid balance negative; only positive
  // balances are starvation.)
  for (const auto& [pid, open] : open_attempts) {
    if (open > 0) {
      report.unresolved_attempts += static_cast<std::uint64_t>(open);
    }
  }
  report.starvation_ok = report.unresolved_attempts == 0;
  if (one_shot) {
    for (const auto& [pid, count] : acquires_by_pid) {
      if (count > 1) report.conservation_ok = false;  // double acquire
    }
  }
  return report;
}

}  // namespace

AuditReport audit_one_shot(const std::vector<obs::Event>& events) {
  return audit_common(events, /*one_shot=*/true);
}

AuditReport audit_long_lived(const std::vector<obs::Event>& events) {
  return audit_common(events, /*one_shot=*/false);
}

std::string AuditReport::to_string() const {
  std::ostringstream os;
  os << "audit{mutex=" << (mutex_ok ? "ok" : "VIOLATED")
     << " conservation=" << (conservation_ok ? "ok" : "VIOLATED")
     << " starvation=" << (starvation_ok ? "ok" : "VIOLATED")
     << " fcfs_inversions=" << fcfs_inversions
     << " unresolved=" << unresolved_attempts
     << " doorways=" << doorways << " acquires=" << acquires
     << " releases=" << releases << " aborts=" << aborts << "}";
  return os.str();
}

}  // namespace aml::harness
