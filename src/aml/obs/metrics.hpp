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
//   * Metrics — per-process cache-padded counters (acquisitions, aborts,
//     spin iterations, FindNext ascents, instance switches, spin-node
//     recycles), optional per-pid event rings (see events.hpp; the same
//     rings ShmMetrics places in the segment), and a hand-off latency
//     histogram (see histogram.hpp). Timestamps come from an internal
//     logical event clock by default — deterministic under the step
//     scheduler — or from a caller-installed clock (e.g. pal-level TSC on
//     native hardware).
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
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "aml/model/types.hpp"
#include "aml/obs/events.hpp"
#include "aml/obs/histogram.hpp"
#include "aml/pal/cache.hpp"

namespace aml::obs {

using model::Pid;

/// Per-process counters. Each process mutates only its own cache-padded
/// copy, so recording is contention-free.
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

/// The disabled sink. Never instantiated at runtime; only its type matters.
class NullMetrics {
 public:
  static constexpr bool kEnabled = false;
};

/// One sink's contention picture in a single value — what a per-stripe sink
/// exports to a dashboard or a grow policy: grant/abort totals, the derived
/// abort rate, and the hand-off latency distribution rollup.
struct ContentionRollup {
  Counters totals;
  LatencyHistogram::Snapshot handoff;
  double abort_rate = 0.0;  ///< aborts / (acquisitions + aborts); 0 if idle
};

/// The enabled sink. Each pid has one writer (the thread acting as it), so
/// its counters and its event ring take plain owner stores.
class Metrics {
 public:
  static constexpr bool kEnabled = true;

  /// `ring_capacity` 0 disables event recording (counters and the hand-off
  /// histogram stay active); otherwise each pid's ring keeps its newest
  /// ceil(ring_capacity / nprocs) events.
  explicit Metrics(Pid nprocs, std::size_t ring_capacity = 0)
      : pids_(nprocs),
        ring_per_pid_(obs::ring_slots_per_pid(nprocs, ring_capacity)) {
    if (ring_per_pid_ == 0) return;
    for (auto& cell : pids_) {
      cell->ring = std::make_unique<EventSlot[]>(ring_per_pid_);
    }
  }

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // --- instrumentation points (called via SinkHandle) --------------------

  void on_enter(Pid p, std::uint32_t slot) {
    emit(EventKind::kEnter, p, slot);
  }

  void on_granted(Pid p, std::uint32_t slot) {
    pids_[p]->counters.acquisitions++;
    const std::uint64_t t = emit(EventKind::kGranted, p, slot);
    const std::uint64_t handed =
        pending_handoff_.exchange(0, std::memory_order_acq_rel);
    if (handed != 0 && t > handed) handoff_.record(t - handed);
  }

  void on_abort(Pid p, std::uint32_t slot) {
    pids_[p]->counters.aborts++;
    emit(EventKind::kAbort, p, slot);
  }

  void on_exit(Pid p, std::uint32_t slot) {
    const std::uint64_t t = emit(EventKind::kExit, p, slot);
    pending_handoff_.store(t, std::memory_order_release);
  }

  void on_switch(Pid p) {
    pids_[p]->counters.instance_switches++;
    emit(EventKind::kSwitch, p, kNoSlot);
  }

  void on_spin_iteration(Pid p) { pids_[p]->counters.spin_iterations++; }

  void on_findnext(Pid p) { pids_[p]->counters.findnext_ascents++; }

  void on_spin_node_recycle(Pid p, std::uint64_t nodes) {
    pids_[p]->counters.spin_node_recycles += nodes;
  }

  // --- inspection --------------------------------------------------------

  Pid nprocs() const { return static_cast<Pid>(pids_.size()); }
  const Counters& of(Pid p) const { return pids_[p]->counters; }

  Counters totals() const {
    Counters total;
    for (const auto& cell : pids_) total += cell->counters;
    return total;
  }

  /// Slots in each pid's ring (0 = recording disabled).
  std::uint32_t ring_slots_per_pid() const { return ring_per_pid_; }

  /// Every pid's retained, fully published events merged oldest first by
  /// timestamp; torn or in-flight slots are skipped and counted into `torn`.
  std::vector<Event> ring_snapshot(std::uint64_t* torn = nullptr) const {
    return merge_rings(nprocs(), [this](Pid p) { return ring(p); }, torn);
  }

  /// Events offered to the rings, overwritten ones included.
  std::uint64_t ring_total() const {
    std::uint64_t sum = 0;
    for (Pid p = 0; p < nprocs(); ++p) sum += ring(p).total();
    return sum;
  }

  /// Events the rings no longer retain.
  std::uint64_t ring_dropped() const {
    std::uint64_t sum = 0;
    for (Pid p = 0; p < nprocs(); ++p) sum += ring(p).dropped();
    return sum;
  }

  const LatencyHistogram& handoff() const { return handoff_; }

  /// Totals + hand-off percentiles + abort rate in one call (consistent once
  /// writers quiesce, like totals()).
  ContentionRollup contention() const {
    ContentionRollup r;
    r.totals = totals();
    r.handoff = handoff_.snapshot();
    const std::uint64_t attempts = r.totals.acquisitions + r.totals.aborts;
    if (attempts != 0) {
      r.abort_rate = static_cast<double>(r.totals.aborts) /
                     static_cast<double>(attempts);
    }
    return r;
  }

  /// Current logical time (events recorded so far + 1 at the next event).
  std::uint64_t now_ticks() const {
    return logical_.load(std::memory_order_relaxed);
  }

  /// Install a timestamp source (e.g. a TSC reader, or the scheduler's step
  /// counter). Must be set before instrumented processes start; null
  /// restores the default logical event clock.
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }

  void reset() {
    for (auto& cell : pids_) cell->counters = Counters{};
    handoff_.reset();
    pending_handoff_.store(0, std::memory_order_relaxed);
    // The rings keep their history; logical time keeps advancing so ticks
    // stay unique across reset boundaries.
  }

 private:
  /// One pid's state: its counters and its ring, on lines of its own.
  struct PidCell {
    Counters counters;
    mutable std::atomic<std::uint64_t> ring_head{0};  ///< owner-stored
    std::unique_ptr<EventSlot[]> ring;
  };

  std::uint64_t now() {
    if (clock_) return clock_();
    return logical_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  PidRing ring(Pid p) const {
    const PidCell& cell = *pids_[p];
    return PidRing(cell.ring_head, cell.ring.get(), ring_per_pid_);
  }

  std::uint64_t emit(EventKind kind, Pid p, std::uint32_t slot) {
    const std::uint64_t t = now();
    if (ring_per_pid_ != 0) {
      Event e;
      e.kind = kind;
      e.pid = p;
      e.slot = slot;
      e.ts = t;
      ring(p).push(e);
    }
    return t;
  }

  std::vector<pal::CachePadded<PidCell>> pids_;
  std::uint32_t ring_per_pid_;
  LatencyHistogram handoff_;
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
