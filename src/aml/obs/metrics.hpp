// aml::obs — the observability layer.
//
// The lock templates take a Metrics sink type parameter (default
// NullMetrics) and route every instrumentation point through a
// SinkHandle<Metrics> member. The two sink flavors:
//
//   * NullMetrics — the production default. SinkHandle<NullMetrics> is an
//     empty class whose hooks are static no-ops, so with
//     [[no_unique_address]] the sink occupies no storage and the enter/exit
//     hot paths compile to exactly the uninstrumented code: no loads, no
//     stores, no branches. kZeroCostSink<NullMetrics> static_asserts this.
//
//   * Metrics — the owner-written per-pid cells ShmMetrics places in a
//     segment, here on the heap: one 64-byte CounterCell per pid
//     (acquisitions, aborts, spin iterations, FindNext ascents, instance
//     switches, spin-node recycles, plus the pid's ring head), one hand-off
//     LatencyHistogram cell per pid (histogram.hpp), and optional per-pid
//     event rings (events.hpp). PidCells is the one view both sinks write
//     and read them through. Timestamps come from an internal logical
//     event clock by default — deterministic under the step scheduler — or
//     from a caller-installed clock (e.g. pal-level TSC on native
//     hardware).
//
// A lock is instrumented by instantiating it with the Metrics sink type and
// binding a sink instance:
//
//   aml::obs::Metrics metrics(nprocs, /*ring_capacity=*/4096);
//   aml::core::OneShotLock<Model, aml::obs::Metrics> lock(model, n, w);
//   lock.set_metrics(&metrics);
//   ... run ...
//   metrics.totals().acquisitions; metrics.ring_snapshot(); ...
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "aml/ipc/offset_ptr.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/events.hpp"
#include "aml/obs/histogram.hpp"
#include "aml/pal/cache.hpp"

namespace aml::obs {

using model::Pid;

/// One pid's counters, as read out of its CounterCell.
struct Counters {
  std::uint64_t acquisitions = 0;       ///< critical sections entered
  std::uint64_t aborts = 0;             ///< attempts abandoned via the signal
  std::uint64_t spin_iterations = 0;    ///< busy-wait predicate evaluations
  std::uint64_t findnext_ascents = 0;   ///< SignalNext tree walks started
  std::uint64_t instance_switches = 0;  ///< successful LockDesc CAS installs
  std::uint64_t spin_node_recycles = 0; ///< spin nodes reclaimed into pools

  Counters& operator+=(const Counters& o) {
    acquisitions += o.acquisitions;
    aborts += o.aborts;
    spin_iterations += o.spin_iterations;
    findnext_ascents += o.findnext_ascents;
    instance_switches += o.instance_switches;
    spin_node_recycles += o.spin_node_recycles;
    return *this;
  }
};

// AML_SHM_REGION_BEGIN
/// Per-pid counter cell plus the head of that pid's event ring. Written
/// only by the pid's current owner, padded so neighbours never false-share;
/// readers (other threads, other processes) only load.
struct alignas(pal::kCacheLine) CounterCell {
  std::atomic<std::uint64_t> acquisitions;
  std::atomic<std::uint64_t> aborts;
  std::atomic<std::uint64_t> spin_iterations;
  std::atomic<std::uint64_t> findnext_ascents;
  std::atomic<std::uint64_t> instance_switches;
  std::atomic<std::uint64_t> spin_node_recycles;
  std::atomic<std::uint64_t> ring_head;  ///< events this pid ever emitted
  std::atomic<std::uint64_t> last_ns;  ///< stamp of its last event; 0 = none
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(CounterCell);
static_assert(sizeof(CounterCell) == pal::kCacheLine,
              "the counter cell is persisted in segments");

inline Counters load(const CounterCell& c) {
  Counters t;
  t.acquisitions = c.acquisitions.load(std::memory_order_relaxed);
  t.aborts = c.aborts.load(std::memory_order_relaxed);
  t.spin_iterations = c.spin_iterations.load(std::memory_order_relaxed);
  t.findnext_ascents = c.findnext_ascents.load(std::memory_order_relaxed);
  t.instance_switches = c.instance_switches.load(std::memory_order_relaxed);
  t.spin_node_recycles = c.spin_node_recycles.load(std::memory_order_relaxed);
  return t;
}

/// Every pid's owner-written cells, over storage the sink placed: `nprocs`
/// counter cells (each holding its pid's ring head), `nprocs` hand-off
/// histogram cells, and `nprocs` rings of `ring_per_pid` slots laid
/// ring_stride_bytes() apart. A non-owning view; both sinks write and read
/// through it, so the two placements hold the same bytes.
class PidCells {
 public:
  using Field = std::atomic<std::uint64_t> CounterCell::*;

  PidCells() = default;
  PidCells(Pid nprocs, CounterCell* counters, LatencyHistogram* handoff,
           std::byte* rings, std::uint32_t ring_per_pid)
      : nprocs_(nprocs),
        ring_per_pid_(ring_per_pid),
        ring_stride_(ring_stride_bytes(ring_per_pid)),
        counters_(counters),
        handoff_(handoff),
        rings_(rings) {}

  // --- owner writes (the acting pid's own cells) -------------------------

  void bump(Pid p, Field f, std::uint64_t n = 1) const {
    obs::bump(counters_[p].*f, n);
  }

  /// Exit->granted latency, recorded into the grantee's own cell.
  void record_handoff(Pid grantee, std::uint64_t v) const {
    handoff_[grantee].record(v);
  }

  /// Stamp `e.pid`'s last_ns, then push into its own ring (a writer that
  /// dies mid-push leaves one torn slot; its next owner skips it).
  void emit_at(const Event& e) const {
    counters_[e.pid].last_ns.store(e.ts, std::memory_order_relaxed);
    if (ring_per_pid_ == 0) return;
    ring(e.pid).push(e);
  }

  /// Zero the counters and hand-off cells; ring heads, last_ns and ring
  /// history stay. Only while no writer runs.
  void reset() const {
    for (Pid p = 0; p < nprocs_; ++p) {
      CounterCell& c = counters_[p];
      for (const Field f : {&CounterCell::acquisitions, &CounterCell::aborts,
                            &CounterCell::spin_iterations,
                            &CounterCell::findnext_ascents,
                            &CounterCell::instance_switches,
                            &CounterCell::spin_node_recycles}) {
        (c.*f).store(0, std::memory_order_relaxed);
      }
      handoff_[p].reset();
    }
  }

  // --- readers (any thread, any attached process) ------------------------

  Pid nprocs() const { return nprocs_; }
  /// Slots in each pid's ring (0 = recording disabled).
  std::uint32_t ring_slots_per_pid() const { return ring_per_pid_; }

  Counters of(Pid p) const { return load(counters_[p]); }

  Counters totals() const {
    Counters sum;
    for (Pid p = 0; p < nprocs_; ++p) sum += of(p);
    return sum;
  }

  /// Stamp of `p`'s last event (0 when it never emitted one).
  std::uint64_t last_ns(Pid p) const {
    return counters_[p].last_ns.load(std::memory_order_relaxed);
  }

  PidRing ring(Pid p) const {
    return PidRing(counters_[p].ring_head,
                   reinterpret_cast<EventSlot*>(rings_ + p * ring_stride_),
                   ring_per_pid_);
  }

  /// Every pid's retained, fully published events merged oldest first by
  /// timestamp (ties keep pid, then ring, order); torn or in-flight slots
  /// are skipped and counted into `torn`.
  std::vector<Event> ring_snapshot(std::uint64_t* torn = nullptr) const {
    return merge_rings(nprocs_, [this](Pid p) { return ring(p); }, torn);
  }

  /// Events offered to the rings, overwritten ones included.
  std::uint64_t ring_total() const {
    std::uint64_t sum = 0;
    for (Pid p = 0; p < nprocs_; ++p) sum += ring(p).total();
    return sum;
  }

  /// Events the rings no longer retain.
  std::uint64_t ring_dropped() const {
    std::uint64_t sum = 0;
    for (Pid p = 0; p < nprocs_; ++p) sum += ring(p).dropped();
    return sum;
  }

  /// Every pid's hand-off cell, read as one histogram.
  HistogramCells handoff() const { return {handoff_, nprocs_}; }

 private:
  Pid nprocs_ = 0;
  std::uint32_t ring_per_pid_ = 0;  ///< slots per pid ring; 0 = no ring
  std::uint64_t ring_stride_ = 0;   ///< bytes between consecutive rings
  CounterCell* counters_ = nullptr;
  LatencyHistogram* handoff_ = nullptr;  ///< one per pid, grantee-written
  std::byte* rings_ = nullptr;
};

/// The disabled sink. Never instantiated at runtime; only its type matters.
class NullMetrics {
 public:
  static constexpr bool kEnabled = false;
};

/// The enabled sink: the cells ShmMetrics places in a segment, on the heap.
/// Each pid has one writer (the thread acting as it), so its counters, its
/// hand-off cell and its ring take plain owner stores; the only shared words
/// are the pending hand-off stamp and the default logical clock.
class Metrics {
 public:
  static constexpr bool kEnabled = true;

  /// `ring_capacity` 0 disables event recording (counters and the hand-off
  /// histogram stay active); otherwise each pid's ring keeps its newest
  /// ceil(ring_capacity / nprocs) events.
  explicit Metrics(Pid nprocs, std::size_t ring_capacity = 0)
      : counters_(std::make_unique<CounterCell[]>(nprocs)),
        handoff_(std::make_unique<LatencyHistogram[]>(nprocs)) {
    const std::uint32_t per_pid =
        obs::ring_slots_per_pid(nprocs, ring_capacity);
    rings_ = std::make_unique<Line[]>(nprocs * ring_stride_bytes(per_pid) /
                                      pal::kCacheLine);
    cells_ = PidCells(nprocs, counters_.get(), handoff_.get(),
                      reinterpret_cast<std::byte*>(rings_.get()), per_pid);
  }

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // --- instrumentation points (called via SinkHandle) --------------------

  void on_enter(Pid p, std::uint32_t slot) {
    emit(EventKind::kEnter, p, slot);
  }

  void on_granted(Pid p, std::uint32_t slot) {
    cells_.bump(p, &CounterCell::acquisitions);
    const std::uint64_t t = emit(EventKind::kGranted, p, slot);
    const std::uint64_t handed =
        pending_handoff_.exchange(0, std::memory_order_acq_rel);
    if (handed != 0 && t > handed) cells_.record_handoff(p, t - handed);
  }

  void on_abort(Pid p, std::uint32_t slot) {
    cells_.bump(p, &CounterCell::aborts);
    emit(EventKind::kAbort, p, slot);
  }

  void on_exit(Pid p, std::uint32_t slot) {
    const std::uint64_t t = emit(EventKind::kExit, p, slot);
    pending_handoff_.store(t, std::memory_order_release);
  }

  void on_switch(Pid p) {
    cells_.bump(p, &CounterCell::instance_switches);
    emit(EventKind::kSwitch, p, kNoSlot);
  }

  void on_spin_iteration(Pid p) {
    cells_.bump(p, &CounterCell::spin_iterations);
  }

  void on_findnext(Pid p) { cells_.bump(p, &CounterCell::findnext_ascents); }

  void on_spin_node_recycle(Pid p, std::uint64_t nodes) {
    cells_.bump(p, &CounterCell::spin_node_recycles, nodes);
  }

  // --- inspection (safe while writers run) -------------------------------

  Pid nprocs() const { return cells_.nprocs(); }
  Counters of(Pid p) const { return cells_.of(p); }
  Counters totals() const { return cells_.totals(); }
  std::uint32_t ring_slots_per_pid() const {
    return cells_.ring_slots_per_pid();
  }
  std::vector<Event> ring_snapshot(std::uint64_t* torn = nullptr) const {
    return cells_.ring_snapshot(torn);
  }
  std::uint64_t ring_total() const { return cells_.ring_total(); }
  std::uint64_t ring_dropped() const { return cells_.ring_dropped(); }
  HistogramCells handoff() const { return cells_.handoff(); }

  /// Install a timestamp source (e.g. a TSC reader, or the scheduler's step
  /// counter). Must be set before instrumented processes start; null
  /// restores the default logical event clock.
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }

  /// Zero the counters and the hand-off histogram. Only while no
  /// instrumented process runs. The rings keep their history, and logical
  /// time keeps advancing so ticks stay unique across reset boundaries.
  void reset() {
    cells_.reset();
    pending_handoff_.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(pal::kCacheLine) Line {
    std::byte bytes[pal::kCacheLine];
  };

  std::uint64_t now() {
    if (clock_) return clock_();
    return logical_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t emit(EventKind kind, Pid p, std::uint32_t slot) {
    Event e;
    e.kind = kind;
    e.pid = p;
    e.slot = slot;
    e.ts = now();
    cells_.emit_at(e);
    return e.ts;
  }

  std::unique_ptr<CounterCell[]> counters_;
  std::unique_ptr<LatencyHistogram[]> handoff_;
  std::unique_ptr<Line[]> rings_;  ///< ring bytes, cache-line aligned
  PidCells cells_;
  std::atomic<std::uint64_t> pending_handoff_{0};
  std::atomic<std::uint64_t> logical_{0};
  std::function<std::uint64_t()> clock_;
};

/// What the lock templates actually hold: a bound-or-null pointer for an
/// enabled sink, or an empty no-op shim for NullMetrics.
template <typename Sink>
class SinkHandle {
 public:
  using sink_type = Sink;

  void bind(Sink* sink) { sink_ = sink; }
  Sink* get() const { return sink_; }

  void on_enter(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_enter(p, slot);
  }
  void on_granted(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_granted(p, slot);
  }
  void on_abort(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_abort(p, slot);
  }
  void on_exit(Pid p, std::uint32_t slot) {
    if (sink_ != nullptr) sink_->on_exit(p, slot);
  }
  void on_switch(Pid p) {
    if (sink_ != nullptr) sink_->on_switch(p);
  }
  void on_spin_iteration(Pid p) {
    if (sink_ != nullptr) sink_->on_spin_iteration(p);
  }
  void on_findnext(Pid p) {
    if (sink_ != nullptr) sink_->on_findnext(p);
  }
  void on_spin_node_recycle(Pid p, std::uint64_t nodes) {
    if (sink_ != nullptr) sink_->on_spin_node_recycle(p, nodes);
  }

 private:
  Sink* sink_ = nullptr;
};

/// Disabled specialization: empty, all hooks static no-ops. With
/// [[no_unique_address]] this adds zero bytes and zero instructions.
template <>
class SinkHandle<NullMetrics> {
 public:
  using sink_type = NullMetrics;

  static void bind(NullMetrics*) {}
  static NullMetrics* get() { return nullptr; }
  static void on_enter(Pid, std::uint32_t) {}
  static void on_granted(Pid, std::uint32_t) {}
  static void on_abort(Pid, std::uint32_t) {}
  static void on_exit(Pid, std::uint32_t) {}
  static void on_switch(Pid) {}
  static void on_spin_iteration(Pid) {}
  static void on_findnext(Pid) {}
  static void on_spin_node_recycle(Pid, std::uint64_t) {}
};

/// True when instrumenting with `Sink` costs nothing: the handle stores no
/// state, so the optimizer erases every hook call. The deployment header
/// static_asserts this for the default NullMetrics configuration.
template <typename Sink>
inline constexpr bool kZeroCostSink = std::is_empty_v<SinkHandle<Sink>>;

static_assert(kZeroCostSink<NullMetrics>,
              "the disabled metrics sink must compile to nothing");
static_assert(!kZeroCostSink<Metrics>, "the enabled sink carries state");

}  // namespace aml::obs
