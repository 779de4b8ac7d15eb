// Execution auditing: checks the paper's safety and fairness properties
// over a lock's own event stream (obs::Metrics::ring_snapshot(), or any
// std::vector<obs::Event> in time order):
//
//   * mutual exclusion — granted/exit strictly alternate;
//   * conservation     — every grant has an exit; every attempt ends;
//   * FCFS             — critical-section order follows doorway (queue
//                        slot) order among completers (one-shot lock);
//   * single shot      — no process acquires twice (one-shot workloads);
//   * starvation freedom — every attempt that completed its doorway resolved
//                        (granted or aborted) by the end of the history: a
//                        process still parked when the run is over is a lost
//                        wake-up, the failure mode of a broken hand-off.
//
// Only the lifecycle kinds count (enter = doorway, granted, exit, abort);
// switches and recovery arms are ignored. Tests and the fairness bench build
// on this instead of re-deriving ad-hoc checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aml/obs/events.hpp"

namespace aml::harness {

struct AuditReport {
  bool mutex_ok = true;          ///< no overlapping critical sections
  bool conservation_ok = true;   ///< grants == exits, no double acquire
  bool starvation_ok = true;     ///< every doorway resolved by history end
  std::uint64_t fcfs_inversions = 0;  ///< CS entries out of slot order
  std::uint64_t unresolved_attempts = 0;  ///< doorways never acquired/aborted
  std::uint64_t doorways = 0;
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  std::uint64_t aborts = 0;

  bool clean() const {
    return mutex_ok && conservation_ok && starvation_ok &&
           fcfs_inversions == 0;
  }
  std::string to_string() const;
};

/// Audit a one-shot-style history (each process attempts once).
AuditReport audit_one_shot(const std::vector<obs::Event>& events);

/// Audit a long-lived history: mutual exclusion and conservation only
/// (the long-lived lock is not FCFS; fcfs_inversions is still reported,
/// informationally).
AuditReport audit_long_lived(const std::vector<obs::Event>& events);

}  // namespace aml::harness
