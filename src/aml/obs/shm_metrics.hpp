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
// belongs to the acting pid — its cache-padded counter cell, its hand-off
// histogram, its own event ring — except the stripe's pending hand-off word,
// which only the outgoing and incoming holder touch. A pid has one writer at
// a time: its leaseholder, or the survivor holding its recovery claim (a
// recoverer acts under its own leased pid, so its events land in its own
// ring). Owned cells therefore take plain load/store bumps, not fetch_adds.
// The rings are events.hpp's per-pid rings (the same PidRing push and read
// the process-local Metrics runs), laid over arena bytes with each pid's
// head in its counter cell, so torn slots are detected, never returned.
// Readers merge the per-pid rings by timestamp: CLOCK_MONOTONIC, comparable
// across processes on the same host, so the merged stream renders on one
// Perfetto timeline (trace_export.hpp).
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
/// Per-pid counter cell plus the head of that pid's event ring. Written
/// only by the pid's current owner, padded so neighbours never false-share;
/// cross-process readers only load.
struct alignas(pal::kCacheLine) ShmCounterCell {
  std::atomic<std::uint64_t> acquisitions;
  std::atomic<std::uint64_t> aborts;
  std::atomic<std::uint64_t> spin_iterations;
  std::atomic<std::uint64_t> findnext_ascents;
  std::atomic<std::uint64_t> instance_switches;
  std::atomic<std::uint64_t> spin_node_recycles;
  std::atomic<std::uint64_t> ring_head;  ///< events this pid ever emitted
  std::atomic<std::uint64_t> last_ns;  ///< stamp of its last event; 0 = none
};
static_assert(sizeof(ShmCounterCell) == pal::kCacheLine);

/// Single padded shared word (a stripe's pending hand-off timestamp).
struct alignas(pal::kCacheLine) ShmWordCell {
  std::atomic<std::uint64_t> value;
};

/// Power-of-two histogram (same geometry as LatencyHistogram, minus min/max
/// whose sentinel init would break the zero-page-is-valid rule).
struct alignas(pal::kCacheLine) ShmHistogramCell {
  std::atomic<std::uint64_t> count;
  std::atomic<std::uint64_t> sum;
  std::atomic<std::uint64_t> buckets[LatencyHistogram::kBuckets];
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
AML_SHM_PLACEABLE(ShmCounterCell);
AML_SHM_PLACEABLE(ShmWordCell);
AML_SHM_PLACEABLE(ShmHistogramCell);
AML_SHM_PLACEABLE(ShmRecoveryCell);

struct ShmHistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;  ///< bucket upper bounds (nearest rank), like
  std::uint64_t p90 = 0;  ///  LatencyHistogram::Snapshot
  std::uint64_t p99 = 0;
};

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
      : nprocs_(nprocs),
        stripes_(stripes),
        ring_capacity_(ring_capacity),
        ring_per_pid_(obs::ring_slots_per_pid(nprocs, ring_capacity)),
        ring_stride_(ring_stride_bytes(ring_per_pid_)),
        counters_(arena.alloc_array<ShmCounterCell>(nprocs)),
        pending_handoff_(arena.alloc_array<ShmWordCell>(stripes)),
        recovery_(arena.alloc_array<ShmRecoveryCell>(stripes)),
        rings_(arena.at<std::byte>(arena.alloc_offset(
            static_cast<std::uint64_t>(nprocs) * ring_stride_,
            pal::kCacheLine))),
        handoff_hist_(arena.alloc_array<ShmHistogramCell>(nprocs)),
        sweep_hist_(arena.alloc_array<ShmHistogramCell>(1)),
        self_os_pid_(static_cast<std::uint64_t>(::getpid())) {}

  ShmMetrics(const ShmMetrics&) = delete;
  ShmMetrics& operator=(const ShmMetrics&) = delete;

  /// Arena bytes the construction replay consumes, for segment sizing.
  /// Must mirror the constructor's allocation sequence exactly.
  static std::uint64_t footprint_bytes(model::Pid nprocs,
                                       std::uint32_t stripes,
                                       std::uint32_t ring_capacity) {
    const std::uint64_t n = nprocs;
    std::uint64_t b = 0;
    b += n * sizeof(ShmCounterCell);
    b += static_cast<std::uint64_t>(stripes) * sizeof(ShmWordCell);
    b += static_cast<std::uint64_t>(stripes) * sizeof(ShmRecoveryCell);
    b += n * ring_stride_bytes(
                 obs::ring_slots_per_pid(nprocs, ring_capacity));
    b += (n + 1) * sizeof(ShmHistogramCell);
    b += 8 * pal::kCacheLine;  // alignment slop between allocations
    return b;
  }

  model::Pid nprocs() const { return nprocs_; }
  std::uint32_t stripes() const { return stripes_; }
  /// The configured event budget for the whole segment.
  std::uint32_t ring_capacity() const { return ring_capacity_; }
  /// Slots in each pid's ring: ceil(ring_capacity / nprocs).
  std::uint32_t ring_slots_per_pid() const { return ring_per_pid_; }

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
    bump(counters_[p].acquisitions);
    const std::uint64_t t = now_ns();
    emit_at(EventKind::kGranted, stripe, p, Event::kNoPid, slot,
            instance, t);
    // Hand-off latency: the previous holder parked its exit timestamp in
    // the stripe's pending word; one exchange claims it. The word is only
    // ever touched by the outgoing and incoming holder — the pair already
    // communicating through the lock word itself — so this adds no *new*
    // contention edge. The grantee records into its own histogram.
    const std::uint64_t handed = pending_handoff_[stripe].value.exchange(
        0, std::memory_order_acq_rel);
    if (handed != 0 && t > handed) record_owned(handoff_hist_[p], t - handed);
  }

  void on_abort(std::uint32_t stripe, model::Pid p, std::uint32_t slot,
                std::uint32_t instance) {
    bump(counters_[p].aborts);
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
    bump(counters_[p].instance_switches);
    emit(EventKind::kSwitch, stripe, p, Event::kNoPid, kNoSlot,
         instance);
  }

  // Counter-only hooks: too frequent for the ring.
  void on_spin_iteration(model::Pid p) { bump(counters_[p].spin_iterations); }
  void on_findnext(model::Pid p) { bump(counters_[p].findnext_ascents); }
  void on_spin_node_recycle(model::Pid p, std::uint64_t nodes = 1) {
    bump(counters_[p].spin_node_recycles, nodes);
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

  /// A retired zombie pid was reclaimed after a full-quiescence epoch.
  void on_zombie_reclaimed(model::Pid exec, model::Pid reclaimed) {
    emit(EventKind::kZombieReclaim, kNoStripe, exec, reclaimed, kNoSlot, 0);
  }

  /// Stripe sentinel for events that describe a whole-service transition
  /// (re-entry, zombie reclamation) rather than one stripe.
  static constexpr std::uint32_t kNoStripe = 0xFFFFu;

  /// Wall-clock duration of one recovery sweep (recover_dead pass). Sweeps
  /// from different processes may overlap, so this one histogram is shared
  /// and takes fetch_adds — it is off the passage path.
  void record_sweep_ns(std::uint64_t ns) {
    ShmHistogramCell& h = sweep_hist_[0];
    h.buckets[LatencyHistogram::bucket_of(ns)].fetch_add(
        1, std::memory_order_relaxed);
    h.count.fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(ns, std::memory_order_relaxed);
  }

  // --- readers (valid from any attached process, including read-only) ---

  /// The same per-pid counter set as the in-process sink's.
  using Totals = Counters;

  Totals pid_counters(model::Pid p) const {
    const ShmCounterCell& c = counters_[p];
    Totals t;
    t.acquisitions = c.acquisitions.load(std::memory_order_relaxed);
    t.aborts = c.aborts.load(std::memory_order_relaxed);
    t.spin_iterations = c.spin_iterations.load(std::memory_order_relaxed);
    t.findnext_ascents = c.findnext_ascents.load(std::memory_order_relaxed);
    t.instance_switches =
        c.instance_switches.load(std::memory_order_relaxed);
    t.spin_node_recycles =
        c.spin_node_recycles.load(std::memory_order_relaxed);
    return t;
  }

  /// `p`'s heartbeat (advisory; see process_registry.hpp): the attempts it
  /// finished, grants + aborts, and the CLOCK_MONOTONIC stamp of its last
  /// event (0 when it never emitted one).
  std::uint64_t heartbeat(model::Pid p) const {
    const Totals t = pid_counters(p);
    return t.acquisitions + t.aborts;
  }
  std::uint64_t last_ns(model::Pid p) const {
    return counters_[p].last_ns.load(std::memory_order_relaxed);
  }

  Totals totals() const {
    Totals sum;
    for (model::Pid p = 0; p < nprocs_; ++p) sum += pid_counters(p);
    return sum;
  }

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

  /// Exit->granted latency over every pid's histogram.
  ShmHistogramSnapshot handoff() const {
    return snapshot(handoff_hist_, nprocs_);
  }
  ShmHistogramSnapshot sweep_latency() const {
    return snapshot(sweep_hist_, 1);
  }

  /// Events pid `p` has emitted (its ring head).
  std::uint64_t ring_total(model::Pid p) const { return ring(p).total(); }

  /// Events pid `p` emitted that its ring no longer retains.
  std::uint64_t ring_dropped(model::Pid p) const { return ring(p).dropped(); }

  std::uint64_t ring_total() const {
    std::uint64_t sum = 0;
    for (model::Pid p = 0; p < nprocs_; ++p) sum += ring_total(p);
    return sum;
  }

  std::uint64_t ring_dropped() const {
    std::uint64_t sum = 0;
    for (model::Pid p = 0; p < nprocs_; ++p) sum += ring_dropped(p);
    return sum;
  }

  /// Retained, fully published events of every pid's ring, merged oldest
  /// first by timestamp (ties keep pid, then ring, order); torn/in-flight
  /// slots are skipped and counted into `torn`.
  std::vector<Event> ring_snapshot(std::uint64_t* torn = nullptr) const {
    return merge_rings(nprocs_, [this](model::Pid p) { return ring(p); },
                       torn);
  }

 private:
  PidRing ring(model::Pid p) const {
    return PidRing(counters_[p].ring_head,
                   reinterpret_cast<EventSlot*>(rings_ + p * ring_stride_),
                   ring_per_pid_);
  }

  /// Single-writer increment: the cell's owner is its only writer, so a
  /// load and a store replace the RMW; readers may see the old value.
  static void bump(std::atomic<std::uint64_t>& w, std::uint64_t n = 1) {
    w.store(w.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  void emit(EventKind kind, std::uint32_t stripe, model::Pid pid,
            model::Pid victim, std::uint32_t slot, std::uint32_t instance) {
    emit_at(kind, stripe, pid, victim, slot, instance, now_ns());
  }

  /// Stamp `pid`'s last_ns, then push into its own ring (a writer that
  /// dies mid-push leaves one torn slot; its next owner skips it).
  void emit_at(EventKind kind, std::uint32_t stripe, model::Pid pid,
               model::Pid victim, std::uint32_t slot, std::uint32_t instance,
               std::uint64_t t) {
    counters_[pid].last_ns.store(t, std::memory_order_relaxed);
    if (ring_per_pid_ == 0) return;
    ring(pid).push(Event{kind, stripe, pid, victim, slot, instance, 0, t,
                         self_os_pid_});
  }

  static void record_owned(ShmHistogramCell& h, std::uint64_t v) {
    bump(h.buckets[LatencyHistogram::bucket_of(v)]);
    bump(h.count);
    bump(h.sum, v);
  }

  /// Merge `n` histogram cells into one snapshot.
  static ShmHistogramSnapshot snapshot(const ShmHistogramCell* cells,
                                       std::uint64_t n) {
    ShmHistogramSnapshot s;
    std::uint64_t buckets[LatencyHistogram::kBuckets] = {};
    std::uint64_t total = 0;
    for (std::uint64_t c = 0; c < n; ++c) {
      for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        const std::uint64_t b =
            cells[c].buckets[i].load(std::memory_order_relaxed);
        buckets[i] += b;
        total += b;
      }
      s.sum += cells[c].sum.load(std::memory_order_relaxed);
    }
    // Percentiles over the buckets we actually read (the count word can be
    // momentarily ahead of the bucket stores under concurrent writers).
    s.count = total;
    if (total == 0) return s;
    s.mean = static_cast<double>(s.sum) / static_cast<double>(total);
    s.p50 = percentile(buckets, total, 0.50);
    s.p90 = percentile(buckets, total, 0.90);
    s.p99 = percentile(buckets, total, 0.99);
    return s;
  }

  static std::uint64_t percentile(
      const std::uint64_t (&buckets)[LatencyHistogram::kBuckets],
      std::uint64_t total, double q) {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total) + 0.9999999);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return LatencyHistogram::bucket_upper(i);
    }
    return LatencyHistogram::bucket_upper(LatencyHistogram::kBuckets - 1);
  }

  model::Pid nprocs_;
  std::uint32_t stripes_;
  std::uint32_t ring_capacity_;
  std::uint32_t ring_per_pid_;  ///< slots per pid ring; 0 = no ring
  std::uint64_t ring_stride_;   ///< bytes between consecutive pids' rings
  ShmCounterCell* counters_;
  ShmWordCell* pending_handoff_;
  ShmRecoveryCell* recovery_;
  std::byte* rings_;  ///< nprocs rings, ring_stride_ bytes apart
  ShmHistogramCell* handoff_hist_;  ///< one per pid, written by the grantee
  ShmHistogramCell* sweep_hist_;
  std::uint64_t self_os_pid_;
};

}  // namespace aml::obs
