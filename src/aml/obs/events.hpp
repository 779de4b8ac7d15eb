// The event vocabulary and the event ring, shared by both sinks: the
// process-local obs::Metrics and the segment-hosted obs::ShmMetrics.
//
// Vocabulary: one EventKind for the lock lifecycle (enter / granted / abort /
// exit / instance switch) and the recovery-dispatch arms a survivor runs on
// a dead process's behalf. The numeric values are persisted in live shm
// segments, so they never change; 0 is a never-used slot.
//
// Ring: one ring per writer pid, over caller-placed storage (process heap
// for Metrics, arena bytes for ShmMetrics). A pid has one writer at a time,
// so the head is a plain owner load/store, never a shared fetch_add. The
// ring is a measurement aid, not a synchronization structure: a push is
// relaxed stores under a per-slot sequence tag the writer sets odd while
// the payload is in flight (claim) and even once it is complete (publish).
// A reader accepts a slot only when its tag reads, before and after the
// payload, as the published tag of exactly the sequence number expected
// there. A writer that died or stalled mid-push, or a stale publish landing
// after a wrap, leaves a mismatched tag: the slot is skipped and counted
// (`torn`), never returned half-written. Readers merge the per-pid rings by
// timestamp; under the deterministic scheduler the default logical clock
// makes that merge a total, reproducible order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "aml/ipc/offset_ptr.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/cache.hpp"

namespace aml::obs {

/// Slot value for events that have no queue slot (e.g. an abort while
/// waiting on the long-lived lock's spin node, before joining an instance).
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

enum class EventKind : std::uint8_t {
  kEnter = 1,        ///< doorway passed; slot assigned
  kGranted,          ///< critical section entered
  kAbort,            ///< attempt abandoned by its owner
  kExit,             ///< critical section released by its owner
  kSwitch,           ///< long-lived lock installed a fresh one-shot instance
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
};

inline const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kEnter: return "enter";
    case EventKind::kGranted: return "granted";
    case EventKind::kAbort: return "abort";
    case EventKind::kExit: return "exit";
    case EventKind::kSwitch: return "switch";
    case EventKind::kForcedExit: return "forced-exit";
    case EventKind::kCompleteGrant: return "complete-grant";
    case EventKind::kAbortOnBehalf: return "forced-abort";
    case EventKind::kResignal: return "resignal";
    case EventKind::kZombieRetire: return "zombie-retire";
    case EventKind::kFaCompleted: return "fa-completed";
    case EventKind::kFaCompensated: return "fa-compensated";
    case EventKind::kReentry: return "re-entry";
  }
  return "?";
}

/// True for the kinds a survivor emits while repairing another pid's
/// passage or pid (re-entry included).
inline bool event_is_recovery(EventKind kind) {
  return kind >= EventKind::kForcedExit && kind <= EventKind::kReentry;
}

/// A decoded event (process-local view; never placed in the segment).
struct Event {
  static constexpr model::Pid kNoPid = 0xFFFF;

  EventKind kind = EventKind::kEnter;
  std::uint32_t stripe = 0;    ///< shm stripe; 0 for in-process sinks
  model::Pid pid = 0;          ///< acting pid (the executor's for recovery
                               ///  kinds); also the ring it was read from
  model::Pid victim = kNoPid;  ///< victim pid for recovery kinds
  std::uint32_t slot = kNoSlot;
  std::uint32_t instance = 0;  ///< one-shot generation within the stripe
  std::uint64_t seq = 0;       ///< position in `pid`'s own ring
  std::uint64_t ts = 0;        ///< the sink's clock: logical ticks or ns
  std::uint64_t writer_os_pid = 0;  ///< emitting OS process; 0 in-process
};

// AML_SHM_REGION_BEGIN
/// One ring slot: the sequence tag plus the payload packed into atomic
/// words, so a racing writer tears the tag check, never the C++ object model.
/// Unpadded: a ring has one writer at a time, so neighbouring slots never
/// see two writers.
struct EventSlot {
  std::atomic<std::uint64_t> tag;     ///< 0 unused; odd claimed; even published
  std::atomic<std::uint64_t> meta;    ///< kind | stripe | pid | victim
  std::atomic<std::uint64_t> detail;  ///< slot | instance
  std::atomic<std::uint64_t> ts;      ///< timestamp at emit
  std::atomic<std::uint64_t> writer;  ///< OS pid of the emitting process
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(EventSlot);
static_assert(sizeof(EventSlot) == 40, "EventSlot is persisted in segments");

/// Slots in each pid's ring when `capacity` events are split over `nprocs`
/// writers: ceil(capacity / nprocs).
inline std::uint32_t ring_slots_per_pid(model::Pid nprocs,
                                        std::uint64_t capacity) {
  return nprocs == 0
             ? 0
             : static_cast<std::uint32_t>((capacity + nprocs - 1) / nprocs);
}

/// Bytes between consecutive pids' rings: whole cache lines, so no two
/// writers share one.
inline std::uint64_t ring_stride_bytes(std::uint32_t slots) {
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(slots) * sizeof(EventSlot);
  return (bytes + pal::kCacheLine - 1) & ~std::uint64_t{pal::kCacheLine - 1};
}

/// One writer's ring: `n` slots and the head only that writer stores. A
/// non-owning view; n == 0 rings are never pushed.
class PidRing {
 public:
  PidRing(std::atomic<std::uint64_t>& head, EventSlot* slots, std::uint32_t n)
      : head_(&head), slots_(slots), n_(n) {}

  void push(const Event& e) const { publish(claim(), e); }

  /// First half of push(): advance the head and mark the slot claimed (odd
  /// tag). Public so tests can stage a writer that dies between the halves.
  std::uint64_t claim() const {
    const std::uint64_t seq = head_->load(std::memory_order_relaxed);
    head_->store(seq + 1, std::memory_order_relaxed);
    slots_[seq % n_].tag.store(claim_tag(seq), std::memory_order_relaxed);
    return seq;
  }

  /// Second half: the payload, then the publishing (even) tag. A publish
  /// landing after a wrap names the old sequence, so readers skip it.
  void publish(std::uint64_t seq, const Event& e) const {
    EventSlot& s = slots_[seq % n_];
    s.meta.store((static_cast<std::uint64_t>(e.kind) << 56) |
                     (static_cast<std::uint64_t>(e.stripe & 0xFFFFu) << 40) |
                     (static_cast<std::uint64_t>(e.pid & 0xFFFFu) << 24) |
                     (static_cast<std::uint64_t>(e.victim & 0xFFFFu) << 8),
                 std::memory_order_relaxed);
    s.detail.store((static_cast<std::uint64_t>(e.slot) << 32) | e.instance,
                   std::memory_order_relaxed);
    s.ts.store(e.ts, std::memory_order_relaxed);
    s.writer.store(e.writer_os_pid, std::memory_order_relaxed);
    s.tag.store(publish_tag(seq), std::memory_order_release);
  }

  /// Events this writer ever pushed.
  std::uint64_t total() const {
    return head_->load(std::memory_order_relaxed);
  }

  /// Pushed events the ring no longer retains.
  std::uint64_t dropped() const {
    const std::uint64_t t = total();
    return t > n_ ? t - n_ : 0;
  }

  /// Append the retained, fully published events oldest first; returns how
  /// many retained slots were torn or in flight. Stable once the writer
  /// quiesces.
  std::uint64_t read(std::vector<Event>* out) const {
    std::uint64_t torn = 0;
    const std::uint64_t t = total();
    for (std::uint64_t seq = t - std::min<std::uint64_t>(t, n_); seq < t;
         ++seq) {
      const EventSlot& s = slots_[seq % n_];
      const std::uint64_t want = publish_tag(seq);
      if (s.tag.load(std::memory_order_acquire) != want) {
        ++torn;
        continue;
      }
      const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
      const std::uint64_t detail = s.detail.load(std::memory_order_relaxed);
      Event e;
      e.ts = s.ts.load(std::memory_order_relaxed);
      e.writer_os_pid = s.writer.load(std::memory_order_relaxed);
      // Re-validate after the payload reads: a writer that claimed between
      // the two tag loads was mid-overwrite and the words may mix
      // generations.
      if (s.tag.load(std::memory_order_acquire) != want) {
        ++torn;
        continue;
      }
      e.kind = static_cast<EventKind>(meta >> 56);
      e.stripe = static_cast<std::uint32_t>((meta >> 40) & 0xFFFFu);
      e.pid = static_cast<model::Pid>((meta >> 24) & 0xFFFFu);
      e.victim = static_cast<model::Pid>((meta >> 8) & 0xFFFFu);
      e.slot = static_cast<std::uint32_t>(detail >> 32);
      e.instance = static_cast<std::uint32_t>(detail);
      e.seq = seq;
      out->push_back(e);
    }
    return torn;
  }

 private:
  static std::uint64_t claim_tag(std::uint64_t seq) { return 2 * seq + 1; }
  static std::uint64_t publish_tag(std::uint64_t seq) { return 2 * seq + 2; }

  std::atomic<std::uint64_t>* head_;
  EventSlot* slots_;
  std::uint32_t n_;
};

/// Every pid's retained events, merged oldest first by timestamp (ties keep
/// pid, then ring, order). `ring_of(p)` yields pid p's PidRing; torn or
/// in-flight slots are skipped and counted into `torn` (if given).
template <typename RingOf>
std::vector<Event> merge_rings(model::Pid nprocs, RingOf ring_of,
                               std::uint64_t* torn) {
  std::vector<Event> out;
  std::uint64_t skipped = 0;
  for (model::Pid p = 0; p < nprocs; ++p) skipped += ring_of(p).read(&out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });
  if (torn != nullptr) *torn = skipped;
  return out;
}

}  // namespace aml::obs
