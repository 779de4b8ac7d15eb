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
// A ring push stores the pid's own head, then fills the slot under the same
// claim-odd/publish-even tag protocol as the process-local EventRing
// (events.hpp), so torn slots are detected, never returned. Readers merge
// the per-pid rings by timestamp: CLOCK_MONOTONIC, comparable across
// processes on the same host, so the merged stream renders on one Perfetto
// timeline (trace_export.hpp).
//
// Everything placed in the segment is AML_SHM_REGION-safe: flat atomics,
// no pointers, zero-filled pages are the valid initial state (no creator
// stores needed, so the attach replay is naturally storeless).
#pragma once

#include <algorithm>
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
#include "aml/pal/cache.hpp"

namespace aml::obs {

/// Event kinds in the shm ring: the process-local lifecycle kinds plus the
/// typed recovery-dispatch arms a survivor executes on a victim's behalf.
enum class ShmEventKind : std::uint8_t {
  kEnter = 1,        ///< doorway passed
  kGranted,          ///< critical section entered
  kAbort,            ///< attempt abandoned by its owner
  kExit,             ///< critical section released by its owner
  kSwitch,           ///< stripe installed a fresh one-shot instance
  kForcedExit,       ///< recovery: victim held (or was re-signalled mid-exit
                     ///  redo); survivor exited on its behalf
  kCompleteGrant,    ///< recovery: victim died in the doorway already
                     ///  granted; survivor completed the grant then exited
  kAbortOnBehalf,    ///< recovery: victim died waiting; survivor aborted
                     ///  its attempt
  kResignal,         ///< recovery: victim died mid-exit after the hand-off;
                     ///  survivor re-signalled the successor
  kZombieRetire,     ///< recovery: journal window ambiguous; pid retired
  kFaCompleted,      ///< recovery: victim's announced LockDesc F&A found
                     ///  landed; survivor completed the passage forward
  kFaCompensated,    ///< recovery: announced F&A never landed (or was never
                     ///  issued); survivor compensated / redid it itself
  kReentry,          ///< a restarted process resumed its own prior passage
                     ///  via reattach_session
  kZombieReclaim,    ///< a retired zombie pid reclaimed after a
                     ///  full-quiescence epoch
};

inline const char* shm_event_kind_name(ShmEventKind kind) {
  switch (kind) {
    case ShmEventKind::kEnter: return "enter";
    case ShmEventKind::kGranted: return "granted";
    case ShmEventKind::kAbort: return "abort";
    case ShmEventKind::kExit: return "exit";
    case ShmEventKind::kSwitch: return "switch";
    case ShmEventKind::kForcedExit: return "forced-exit";
    case ShmEventKind::kCompleteGrant: return "complete-grant";
    case ShmEventKind::kAbortOnBehalf: return "forced-abort";
    case ShmEventKind::kResignal: return "resignal";
    case ShmEventKind::kZombieRetire: return "zombie-retire";
    case ShmEventKind::kFaCompleted: return "fa-completed";
    case ShmEventKind::kFaCompensated: return "fa-compensated";
    case ShmEventKind::kReentry: return "re-entry";
    case ShmEventKind::kZombieReclaim: return "zombie-reclaimed";
  }
  return "?";
}

/// True for the kinds a recovery sweep emits on a victim's behalf.
inline bool shm_event_is_recovery(ShmEventKind kind) {
  switch (kind) {
    case ShmEventKind::kForcedExit:
    case ShmEventKind::kCompleteGrant:
    case ShmEventKind::kAbortOnBehalf:
    case ShmEventKind::kResignal:
    case ShmEventKind::kZombieRetire:
    case ShmEventKind::kFaCompleted:
    case ShmEventKind::kFaCompensated:
    case ShmEventKind::kReentry:
    case ShmEventKind::kZombieReclaim:
      return true;
    default:
      return false;
  }
}

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

/// One shm ring slot: claim-odd/publish-even tag plus the payload packed
/// into atomic words (see events.hpp for the tag protocol; this is its
/// cross-process twin). Unpadded: a ring has one writer at a time, so
/// neighbouring slots never see two writers; each pid's ring starts on its
/// own cache line.
struct ShmEventSlot {
  std::atomic<std::uint64_t> tag;      ///< 0 never-used; odd claimed; even published
  std::atomic<std::uint64_t> meta;     ///< kind | stripe | pid | victim
  std::atomic<std::uint64_t> detail;   ///< slot | instance
  std::atomic<std::uint64_t> mono_ns;  ///< CLOCK_MONOTONIC at emit
  std::atomic<std::uint64_t> writer;   ///< OS pid of the emitting process
};

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
AML_SHM_PLACEABLE(ShmEventSlot);
AML_SHM_PLACEABLE(ShmWordCell);
AML_SHM_PLACEABLE(ShmHistogramCell);
AML_SHM_PLACEABLE(ShmRecoveryCell);

/// A decoded shm ring event (process-local view; never placed in the
/// segment).
struct ShmEvent {
  ShmEventKind kind = ShmEventKind::kEnter;
  std::uint32_t stripe = 0;
  model::Pid pid = 0;          ///< acting pid (the victim's for lifecycle
                               ///  kinds, the *executor's* for recovery);
                               ///  also the ring the event was read from
  model::Pid victim = kNoPid;  ///< victim pid for recovery kinds
  std::uint32_t slot = kNoSlot;
  std::uint32_t instance = 0;  ///< one-shot generation within the stripe
  std::uint64_t seq = 0;       ///< position in `pid`'s own ring
  std::uint64_t mono_ns = 0;
  std::uint64_t writer_os_pid = 0;

  static constexpr model::Pid kNoPid = 0xFFFF;
};

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
        ring_per_pid_(per_pid_slots(nprocs, ring_capacity)),
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
    b += n * ring_stride_bytes(per_pid_slots(nprocs, ring_capacity));
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
    emit(ShmEventKind::kEnter, stripe, p, ShmEvent::kNoPid, slot, instance);
  }

  void on_granted(std::uint32_t stripe, model::Pid p, std::uint32_t slot,
                  std::uint32_t instance) {
    bump(counters_[p].acquisitions);
    const std::uint64_t t = now_ns();
    emit_at(ShmEventKind::kGranted, stripe, p, ShmEvent::kNoPid, slot,
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
    emit(ShmEventKind::kAbort, stripe, p, ShmEvent::kNoPid, slot, instance);
  }

  void on_exit(std::uint32_t stripe, model::Pid p, std::uint32_t slot,
               std::uint32_t instance) {
    const std::uint64_t t = now_ns();
    emit_at(ShmEventKind::kExit, stripe, p, ShmEvent::kNoPid, slot, instance,
            t);
    pending_handoff_[stripe].value.store(t, std::memory_order_release);
  }

  void on_switch(std::uint32_t stripe, model::Pid p, std::uint32_t instance) {
    bump(counters_[p].instance_switches);
    emit(ShmEventKind::kSwitch, stripe, p, ShmEvent::kNoPid, kNoSlot,
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
  void on_recovery_arm(ShmEventKind kind, std::uint32_t stripe,
                       model::Pid exec, model::Pid victim, std::uint32_t slot,
                       std::uint32_t instance) {
    ShmRecoveryCell& c = recovery_[stripe];
    switch (kind) {
      case ShmEventKind::kForcedExit:
        c.forced_exits.fetch_add(1, std::memory_order_relaxed);
        break;
      case ShmEventKind::kCompleteGrant:
        c.complete_grants.fetch_add(1, std::memory_order_relaxed);
        break;
      case ShmEventKind::kAbortOnBehalf:
        c.aborts_on_behalf.fetch_add(1, std::memory_order_relaxed);
        break;
      case ShmEventKind::kResignal:
        c.resignals.fetch_add(1, std::memory_order_relaxed);
        break;
      case ShmEventKind::kZombieRetire:
        c.zombie_retires.fetch_add(1, std::memory_order_relaxed);
        break;
      case ShmEventKind::kFaCompleted:
        c.fa_completed.fetch_add(1, std::memory_order_relaxed);
        break;
      case ShmEventKind::kFaCompensated:
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
    emit(ShmEventKind::kReentry, kNoStripe, p, p, kNoSlot, 0);
  }

  /// A retired zombie pid was reclaimed after a full-quiescence epoch.
  void on_zombie_reclaimed(model::Pid exec, model::Pid reclaimed) {
    emit(ShmEventKind::kZombieReclaim, kNoStripe, exec, reclaimed, kNoSlot, 0);
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

  struct Totals {
    std::uint64_t acquisitions = 0;
    std::uint64_t aborts = 0;
    std::uint64_t spin_iterations = 0;
    std::uint64_t findnext_ascents = 0;
    std::uint64_t instance_switches = 0;
    std::uint64_t spin_node_recycles = 0;
  };

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
    for (model::Pid p = 0; p < nprocs_; ++p) {
      const Totals t = pid_counters(p);
      sum.acquisitions += t.acquisitions;
      sum.aborts += t.aborts;
      sum.spin_iterations += t.spin_iterations;
      sum.findnext_ascents += t.findnext_ascents;
      sum.instance_switches += t.instance_switches;
      sum.spin_node_recycles += t.spin_node_recycles;
    }
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
  std::uint64_t ring_total(model::Pid p) const {
    return counters_[p].ring_head.load(std::memory_order_relaxed);
  }

  /// Events pid `p` emitted that its ring no longer retains.
  std::uint64_t ring_dropped(model::Pid p) const {
    const std::uint64_t total = ring_total(p);
    return total > ring_per_pid_ ? total - ring_per_pid_ : 0;
  }

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

  /// Retained, fully-published events of every pid's ring, merged oldest
  /// first by timestamp (ties keep pid, then ring, order); torn/in-flight
  /// slots are skipped (and counted into `torn`) exactly as in
  /// EventRing::snapshot().
  std::vector<ShmEvent> ring_snapshot(std::uint64_t* torn = nullptr) const {
    std::vector<ShmEvent> out;
    std::uint64_t skipped = 0;
    for (model::Pid p = 0; p < nprocs_; ++p) {
      const std::uint64_t total = ring_total(p);
      const std::uint64_t kept = std::min<std::uint64_t>(total, ring_per_pid_);
      for (std::uint64_t seq = total - kept; seq < total; ++seq) {
        ShmEvent e;
        if (read_published(p, seq, &e)) {
          out.push_back(e);
        } else {
          ++skipped;
        }
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ShmEvent& a, const ShmEvent& b) {
                       return a.mono_ns < b.mono_ns;
                     });
    if (torn != nullptr) *torn = skipped;
    return out;
  }

 private:
  static std::uint64_t claim_tag(std::uint64_t seq) { return 2 * seq + 1; }
  static std::uint64_t publish_tag(std::uint64_t seq) { return 2 * seq + 2; }

  static std::uint32_t per_pid_slots(model::Pid nprocs,
                                     std::uint32_t ring_capacity) {
    return nprocs == 0 ? 0 : (ring_capacity + nprocs - 1) / nprocs;
  }

  /// Bytes between consecutive pids' rings: whole cache lines, so no two
  /// writers share one.
  static std::uint64_t ring_stride_bytes(std::uint32_t slots) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(slots) * sizeof(ShmEventSlot);
    return (bytes + pal::kCacheLine - 1) & ~std::uint64_t{pal::kCacheLine - 1};
  }

  ShmEventSlot* ring_of(model::Pid p) const {
    return reinterpret_cast<ShmEventSlot*>(rings_ + p * ring_stride_);
  }

  /// Single-writer increment: the cell's owner is its only writer, so a
  /// load and a store replace the RMW; readers may see the old value.
  static void bump(std::atomic<std::uint64_t>& w, std::uint64_t n = 1) {
    w.store(w.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// meta: kind(8) | stripe(16) | pid(16) | victim(16); low 8 reserved.
  static std::uint64_t pack_meta(ShmEventKind kind, std::uint32_t stripe,
                                 model::Pid pid, model::Pid victim) {
    return (static_cast<std::uint64_t>(kind) << 56) |
           (static_cast<std::uint64_t>(stripe & 0xFFFFu) << 40) |
           (static_cast<std::uint64_t>(pid & 0xFFFFu) << 24) |
           (static_cast<std::uint64_t>(victim & 0xFFFFu) << 8);
  }

  static std::uint64_t pack_detail(std::uint32_t slot,
                                   std::uint32_t instance) {
    return (static_cast<std::uint64_t>(slot) << 32) |
           static_cast<std::uint64_t>(instance);
  }

  void emit(ShmEventKind kind, std::uint32_t stripe, model::Pid pid,
            model::Pid victim, std::uint32_t slot, std::uint32_t instance) {
    emit_at(kind, stripe, pid, victim, slot, instance, now_ns());
  }

  /// Stamp `pid`'s last_ns, then push into its own ring: advance its head
  /// (plain stores — the owner is the only writer), then relaxed stores
  /// into the claimed slot (claim odd, payload, publish even). A writer
  /// that dies in between leaves one torn slot; its next owner skips it.
  void emit_at(ShmEventKind kind, std::uint32_t stripe, model::Pid pid,
               model::Pid victim, std::uint32_t slot, std::uint32_t instance,
               std::uint64_t t) {
    counters_[pid].last_ns.store(t, std::memory_order_relaxed);
    if (ring_per_pid_ == 0) return;
    std::atomic<std::uint64_t>& head = counters_[pid].ring_head;
    const std::uint64_t seq = head.load(std::memory_order_relaxed);
    head.store(seq + 1, std::memory_order_relaxed);
    ShmEventSlot& s = ring_of(pid)[seq % ring_per_pid_];
    s.tag.store(claim_tag(seq), std::memory_order_relaxed);
    s.meta.store(pack_meta(kind, stripe, pid, victim),
                 std::memory_order_relaxed);
    s.detail.store(pack_detail(slot, instance), std::memory_order_relaxed);
    s.mono_ns.store(t, std::memory_order_relaxed);
    s.writer.store(self_os_pid_, std::memory_order_relaxed);
    s.tag.store(publish_tag(seq), std::memory_order_release);
  }

  bool read_published(model::Pid p, std::uint64_t seq, ShmEvent* out) const {
    const ShmEventSlot& s = ring_of(p)[seq % ring_per_pid_];
    const std::uint64_t want = publish_tag(seq);
    if (s.tag.load(std::memory_order_acquire) != want) return false;
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    const std::uint64_t detail = s.detail.load(std::memory_order_relaxed);
    const std::uint64_t mono = s.mono_ns.load(std::memory_order_relaxed);
    const std::uint64_t writer = s.writer.load(std::memory_order_relaxed);
    if (s.tag.load(std::memory_order_acquire) != want) return false;
    out->kind = static_cast<ShmEventKind>(meta >> 56);
    out->stripe = static_cast<std::uint32_t>((meta >> 40) & 0xFFFFu);
    out->pid = static_cast<model::Pid>((meta >> 24) & 0xFFFFu);
    out->victim = static_cast<model::Pid>((meta >> 8) & 0xFFFFu);
    out->slot = static_cast<std::uint32_t>(detail >> 32);
    out->instance = static_cast<std::uint32_t>(detail);
    out->seq = seq;
    out->mono_ns = mono;
    out->writer_os_pid = writer;
    return true;
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
