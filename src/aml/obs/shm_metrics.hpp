// Crash-surviving observability: metrics hosted *inside* the lock service's
// shared-memory segment.
//
// The process-local aml::obs::Metrics dies with its process — which is
// precisely the process whose passage an operator most needs to understand
// after a SIGKILL. ShmMetrics moves the flight recorder into the ShmArena,
// allocated during the deterministic creation replay, so:
//
//   * a victim's counters and final ring events are readable post-mortem by
//     any survivor (or by tools/aml_stat attaching read-only to the orphaned
//     segment),
//   * the recovery sweep's typed dispatch events (forced exit, complete
//     grant, abort on behalf, resignal, zombie retire) land in the same
//     merged event stream as the victim's own lifecycle events, and
//   * sweep latency is recorded where every process can see it.
//
// Hot-path cost discipline: no shared RMW. Everything a passage writes here
// belongs to the acting pid — its counter cell, its hand-off histogram cell,
// its own event ring — except the stripe's pending hand-off word, which only
// the outgoing and incoming holder touch. A pid has one writer at a time:
// its leaseholder, or the survivor holding its recovery claim (a recoverer
// acts under its own leased pid, so its events land in its own ring). Owned
// cells therefore take plain load/store bumps, not fetch_adds. The cells are
// metrics.hpp's CounterCell and histogram.hpp's LatencyHistogram, written
// and read through the same PidCells view the process-local Metrics runs
// over heap arrays; here they are laid over arena bytes. The rings are
// events.hpp's per-pid rings with each pid's head in its counter cell, so
// torn slots are detected, never returned. Readers merge the per-pid rings
// by timestamp: CLOCK_MONOTONIC, comparable across processes on the same
// host, so the merged stream renders on one Perfetto timeline
// (trace_export.hpp).
//
// Everything placed in the segment is AML_SHM_REGION-safe: flat atomics,
// no pointers, zero-filled pages are the valid initial state (no creator
// stores needed, so the attach replay is naturally storeless).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <vector>

#include <unistd.h>

#include "aml/ipc/shm_arena.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/events.hpp"
#include "aml/obs/histogram.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/cache.hpp"

namespace aml::obs {

// AML_SHM_REGION_BEGIN
/// Single padded shared word (a stripe's pending hand-off timestamp).
struct alignas(pal::kCacheLine) ShmWordCell {
  std::atomic<std::uint64_t> value;
};

/// Per-stripe recovery dispatch counters. Written only by the (unique)
/// survivor holding that stripe's recovery seqlock, so padding is about
/// keeping reader traffic off unrelated lines, not write contention.
struct alignas(pal::kCacheLine) ShmRecoveryCell {
  std::atomic<std::uint64_t> forced_exits;
  std::atomic<std::uint64_t> complete_grants;
  std::atomic<std::uint64_t> aborts_on_behalf;
  std::atomic<std::uint64_t> resignals;
  std::atomic<std::uint64_t> zombie_retires;
  std::atomic<std::uint64_t> fa_completed;
  std::atomic<std::uint64_t> fa_compensated;
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(ShmWordCell);
AML_SHM_PLACEABLE(ShmRecoveryCell);

struct ShmRecoverySnapshot {
  std::uint64_t forced_exits = 0;
  std::uint64_t complete_grants = 0;
  std::uint64_t aborts_on_behalf = 0;
  std::uint64_t resignals = 0;
  std::uint64_t zombie_retires = 0;
  std::uint64_t fa_completed = 0;
  std::uint64_t fa_compensated = 0;

  std::uint64_t total() const {
    return forced_exits + complete_grants + aborts_on_behalf + resignals +
           zombie_retires + fa_completed + fa_compensated;
  }
};

/// Process-local handle over the segment-hosted metrics. Both roles replay
/// the same allocation sequence; zero pages are the valid initial state, so
/// construction performs no stores at all.
class ShmMetrics {
 public:
  ShmMetrics(ipc::ShmArena& arena, model::Pid nprocs, std::uint32_t stripes,
             std::uint32_t ring_capacity)
      : stripes_(stripes),
        ring_capacity_(ring_capacity),
        self_os_pid_(static_cast<std::uint64_t>(::getpid())) {
    // The segment's allocation order (unchanged since layout version 6;
    // layout 7 gave each VersionedSpace record one arena line);
    // footprint_bytes() mirrors it.
    const std::uint32_t per_pid =
        obs::ring_slots_per_pid(nprocs, ring_capacity);
    auto* counters = arena.alloc_array<CounterCell>(nprocs);
    pending_handoff_ = arena.alloc_array<ShmWordCell>(stripes);
    recovery_ = arena.alloc_array<ShmRecoveryCell>(stripes);
    auto* rings = arena.at<std::byte>(arena.alloc_offset(
        static_cast<std::uint64_t>(nprocs) * ring_stride_bytes(per_pid),
        pal::kCacheLine));
    auto* handoff = arena.alloc_array<LatencyHistogram>(nprocs);
    sweep_hist_ = arena.alloc_array<LatencyHistogram>(1);
    cells_ = PidCells(nprocs, counters, handoff, rings, per_pid);
  }

  ShmMetrics(const ShmMetrics&) = delete;
  ShmMetrics& operator=(const ShmMetrics&) = delete;

  /// Arena bytes the construction replay consumes, for segment sizing.
  /// Must mirror the constructor's allocation sequence exactly.
  static std::uint64_t footprint_bytes(model::Pid nprocs,
                                       std::uint32_t stripes,
                                       std::uint32_t ring_capacity) {
    const std::uint64_t n = nprocs;
    std::uint64_t b = 0;
    b += n * sizeof(CounterCell);
    b += static_cast<std::uint64_t>(stripes) * sizeof(ShmWordCell);
    b += static_cast<std::uint64_t>(stripes) * sizeof(ShmRecoveryCell);
    b += n * ring_stride_bytes(
                 obs::ring_slots_per_pid(nprocs, ring_capacity));
    b += (n + 1) * sizeof(LatencyHistogram);
    b += 8 * pal::kCacheLine;  // alignment slop between allocations
    return b;
  }

  model::Pid nprocs() const { return cells_.nprocs(); }
  std::uint32_t stripes() const { return stripes_; }
  /// The configured event budget for the whole segment.
  std::uint32_t ring_capacity() const { return ring_capacity_; }
  /// Slots in each pid's ring: ceil(ring_capacity / nprocs).
  std::uint32_t ring_slots_per_pid() const {
    return cells_.ring_slots_per_pid();
  }

  /// Wall reference for event stamps, heartbeat ages and sweep durations.
  static std::uint64_t now_ns() {
    struct ::timespec ts {};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  // --- lifecycle hooks (owner pid's own passage) ------------------------

  void on_enter(std::uint32_t stripe, model::Pid p, std::uint32_t slot,
                std::uint32_t instance) {
    emit(EventKind::kEnter, stripe, p, Event::kNoPid, slot, instance);
  }

  void on_granted(std::uint32_t stripe, model::Pid p, std::uint32_t slot,
                  std::uint32_t instance) {
    cells_.bump(p, &CounterCell::acquisitions);
    const std::uint64_t t = now_ns();
    emit_at(EventKind::kGranted, stripe, p, Event::kNoPid, slot,
            instance, t);
    // Hand-off latency: the previous holder parked its exit timestamp in
    // the stripe's pending word; one exchange claims it. The word is only
    // ever touched by the outgoing and incoming holder — the pair already
    // communicating through the lock word itself — so this adds no *new*
    // contention edge. The grantee records into its own histogram cell.
    const std::uint64_t handed = pending_handoff_[stripe].value.exchange(
        0, std::memory_order_acq_rel);
    if (handed != 0 && t > handed) cells_.record_handoff(p, t - handed);
  }

  void on_abort(std::uint32_t stripe, model::Pid p, std::uint32_t slot,
                std::uint32_t instance) {
    cells_.bump(p, &CounterCell::aborts);
    emit(EventKind::kAbort, stripe, p, Event::kNoPid, slot, instance);
  }

  void on_exit(std::uint32_t stripe, model::Pid p, std::uint32_t slot,
               std::uint32_t instance) {
    const std::uint64_t t = now_ns();
    emit_at(EventKind::kExit, stripe, p, Event::kNoPid, slot, instance,
            t);
    pending_handoff_[stripe].value.store(t, std::memory_order_release);
  }

  void on_switch(std::uint32_t stripe, model::Pid p, std::uint32_t instance) {
    cells_.bump(p, &CounterCell::instance_switches);
    emit(EventKind::kSwitch, stripe, p, Event::kNoPid, kNoSlot,
         instance);
  }

  // Counter-only hooks: too frequent for the ring.
  void on_spin_iteration(model::Pid p) {
    cells_.bump(p, &CounterCell::spin_iterations);
  }
  void on_findnext(model::Pid p) {
    cells_.bump(p, &CounterCell::findnext_ascents);
  }
  void on_spin_node_recycle(model::Pid p, std::uint64_t nodes = 1) {
    cells_.bump(p, &CounterCell::spin_node_recycles, nodes);
  }

  // --- recovery hooks (survivor `exec` acting for `victim`) -------------

  /// One typed event per dispatch arm, victim pid in the payload, plus the
  /// per-stripe dispatch counter. `kind` must be a recovery kind.
  void on_recovery_arm(EventKind kind, std::uint32_t stripe,
                       model::Pid exec, model::Pid victim, std::uint32_t slot,
                       std::uint32_t instance) {
    ShmRecoveryCell& c = recovery_[stripe];
    switch (kind) {
      case EventKind::kForcedExit:
        c.forced_exits.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kCompleteGrant:
        c.complete_grants.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kAbortOnBehalf:
        c.aborts_on_behalf.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kResignal:
        c.resignals.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kZombieRetire:
        c.zombie_retires.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kFaCompleted:
        c.fa_completed.fetch_add(1, std::memory_order_relaxed);
        break;
      case EventKind::kFaCompensated:
        c.fa_compensated.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        return;  // lifecycle kinds have their own hooks
    }
    emit(kind, stripe, exec, victim, slot, instance);
  }

  /// A restarted process resumed (or unwound) its own previous incarnation's
  /// passage via reattach_session. Not stripe-scoped: stripe carries the
  /// kNoStripe sentinel.
  void on_reentry(model::Pid p) {
    emit(EventKind::kReentry, kNoStripe, p, p, kNoSlot, 0);
  }

  /// Stripe sentinel for events that describe a whole-service transition
  /// (re-entry) rather than one stripe.
  static constexpr std::uint32_t kNoStripe = 0xFFFFu;

  /// Wall-clock duration of one recovery sweep (recover_dead pass). Sweeps
  /// from different processes may overlap, so this one histogram is shared
  /// and takes fetch_adds — it is off the passage path.
  void record_sweep_ns(std::uint64_t ns) { sweep_hist_->record_shared(ns); }

  // --- readers (valid from any attached process, including read-only) ---

  Counters pid_counters(model::Pid p) const { return cells_.of(p); }
  Counters totals() const { return cells_.totals(); }

  /// `p`'s heartbeat (advisory; see process_registry.hpp): the attempts it
  /// finished, grants + aborts, and the CLOCK_MONOTONIC stamp of its last
  /// event (0 when it never emitted one).
  std::uint64_t heartbeat(model::Pid p) const {
    const Counters t = pid_counters(p);
    return t.acquisitions + t.aborts;
  }
  std::uint64_t last_ns(model::Pid p) const { return cells_.last_ns(p); }

  ShmRecoverySnapshot recovery_stripe(std::uint32_t stripe) const {
    const ShmRecoveryCell& c = recovery_[stripe];
    ShmRecoverySnapshot s;
    s.forced_exits = c.forced_exits.load(std::memory_order_relaxed);
    s.complete_grants = c.complete_grants.load(std::memory_order_relaxed);
    s.aborts_on_behalf = c.aborts_on_behalf.load(std::memory_order_relaxed);
    s.resignals = c.resignals.load(std::memory_order_relaxed);
    s.zombie_retires = c.zombie_retires.load(std::memory_order_relaxed);
    s.fa_completed = c.fa_completed.load(std::memory_order_relaxed);
    s.fa_compensated = c.fa_compensated.load(std::memory_order_relaxed);
    return s;
  }

  ShmRecoverySnapshot recovery_totals() const {
    ShmRecoverySnapshot sum;
    for (std::uint32_t s = 0; s < stripes_; ++s) {
      const ShmRecoverySnapshot r = recovery_stripe(s);
      sum.forced_exits += r.forced_exits;
      sum.complete_grants += r.complete_grants;
      sum.aborts_on_behalf += r.aborts_on_behalf;
      sum.resignals += r.resignals;
      sum.zombie_retires += r.zombie_retires;
      sum.fa_completed += r.fa_completed;
      sum.fa_compensated += r.fa_compensated;
    }
    return sum;
  }

  /// Exit->granted latency over every pid's cell.
  HistogramCells handoff() const { return cells_.handoff(); }
  LatencyHistogram::Snapshot sweep_latency() const {
    return sweep_hist_->snapshot();
  }

  /// Events pid `p` has emitted (its ring head).
  std::uint64_t ring_total(model::Pid p) const {
    return cells_.ring(p).total();
  }

  /// Events pid `p` emitted that its ring no longer retains.
  std::uint64_t ring_dropped(model::Pid p) const {
    return cells_.ring(p).dropped();
  }

  std::uint64_t ring_total() const { return cells_.ring_total(); }
  std::uint64_t ring_dropped() const { return cells_.ring_dropped(); }
  std::vector<Event> ring_snapshot(std::uint64_t* torn = nullptr) const {
    return cells_.ring_snapshot(torn);
  }

 private:
  void emit(EventKind kind, std::uint32_t stripe, model::Pid pid,
            model::Pid victim, std::uint32_t slot, std::uint32_t instance) {
    emit_at(kind, stripe, pid, victim, slot, instance, now_ns());
  }

  void emit_at(EventKind kind, std::uint32_t stripe, model::Pid pid,
               model::Pid victim, std::uint32_t slot, std::uint32_t instance,
               std::uint64_t t) {
    cells_.emit_at(Event{kind, stripe, pid, victim, slot, instance, 0, t,
                         self_os_pid_});
  }

  std::uint32_t stripes_;
  std::uint32_t ring_capacity_;
  std::uint64_t self_os_pid_;
  PidCells cells_;  ///< counter cells, hand-off cells and rings, per pid
  ShmWordCell* pending_handoff_ = nullptr;
  ShmRecoveryCell* recovery_ = nullptr;
  LatencyHistogram* sweep_hist_ = nullptr;
};

}  // namespace aml::obs
