// aml::obs unit tests: the persisted event encodings and cell sizes, per-pid
// event ring semantics, histogram summaries and merges, metrics counters and
// hand-off latency, race-free live reads under native writers, the
// zero-cost disabled sink, and an end-to-end sequential integration against
// the one-shot lock on the counting CC model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/obs/events.hpp"
#include "aml/obs/histogram.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/rng.hpp"

namespace aml::obs {
namespace {

// --- compile-time contract --------------------------------------------------

static_assert(kZeroCostSink<NullMetrics>,
              "disabled sink must add no storage");
static_assert(!kZeroCostSink<Metrics>, "enabled sink must carry a pointer");
static_assert(
    sizeof(core::OneShotLock<model::CountingCcModel>) <=
        sizeof(core::OneShotLock<model::CountingCcModel, Metrics>),
    "NullMetrics lock must not be larger than the instrumented one");

static_assert(static_cast<int>(EventKind::kEnter) == 1 &&
                  static_cast<int>(EventKind::kGranted) == 2 &&
                  static_cast<int>(EventKind::kAbort) == 3 &&
                  static_cast<int>(EventKind::kExit) == 4 &&
                  static_cast<int>(EventKind::kSwitch) == 5 &&
                  static_cast<int>(EventKind::kForcedExit) == 6 &&
                  static_cast<int>(EventKind::kCompleteGrant) == 7 &&
                  static_cast<int>(EventKind::kAbortOnBehalf) == 8 &&
                  static_cast<int>(EventKind::kResignal) == 9 &&
                  static_cast<int>(EventKind::kZombieRetire) == 10 &&
                  static_cast<int>(EventKind::kFaCompleted) == 11 &&
                  static_cast<int>(EventKind::kFaCompensated) == 12 &&
                  static_cast<int>(EventKind::kReentry) == 13,
              "event kinds are persisted in live segments: never renumber");
static_assert(sizeof(EventSlot) == 40,
              "the ring slot layout is persisted in live segments");

// --- the per-pid event ring -------------------------------------------------

Event make_event(EventKind kind, std::uint32_t slot, std::uint64_t ts) {
  Event e;
  e.kind = kind;
  e.slot = slot;
  e.ts = ts;
  return e;
}

TEST(EventRingTest, DisabledWhenCapacityZero) {
  Metrics m(2, /*ring_capacity=*/0);
  m.on_enter(0, 1);
  m.on_granted(1, 2);
  EXPECT_EQ(m.ring_slots_per_pid(), 0u);
  EXPECT_EQ(m.ring_total(), 0u);
  EXPECT_EQ(m.ring_dropped(), 0u);
  EXPECT_TRUE(m.ring_snapshot().empty());
  EXPECT_EQ(m.totals().acquisitions, 1u);  // counters stay on
}

TEST(EventRingTest, RetainsInOrderBelowCapacity) {
  Metrics m(5, /*ring_capacity=*/40);  // 8 slots per pid
  EXPECT_EQ(m.ring_slots_per_pid(), 8u);
  for (std::uint32_t i = 0; i < 5; ++i) m.on_enter(i, i);
  EXPECT_EQ(m.ring_total(), 5u);
  EXPECT_EQ(m.ring_dropped(), 0u);
  std::uint64_t torn = ~std::uint64_t{0};
  const auto events = m.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(events.size(), 5u);
  // One event per pid's ring, merged back into emission (tick) order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, i + 1);
    EXPECT_EQ(events[i].pid, i);
    EXPECT_EQ(events[i].slot, i);
    EXPECT_EQ(events[i].seq, 0u);
  }
}

TEST(EventRingTest, WraparoundKeepsNewestAndCountsDropped) {
  Metrics m(2, /*ring_capacity=*/8);  // 4 slots per pid
  for (std::uint32_t i = 0; i < 10; ++i) m.on_exit(0, i);
  m.on_exit(1, 100);
  m.on_exit(1, 101);
  EXPECT_EQ(m.ring_total(), 12u);
  // Only pid 0 wrapped; pid 1's quiet ring keeps everything it wrote.
  EXPECT_EQ(m.ring_dropped(), 6u);
  const auto events = m.ring_snapshot();
  ASSERT_EQ(events.size(), 6u);
  // Oldest retained first: pid 0's slots 6..9, then pid 1's two.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].pid, 0u);
    EXPECT_EQ(events[i].slot, 6u + i);
    EXPECT_EQ(events[i].seq, 6u + i);
  }
  EXPECT_EQ(events[4].slot, 100u);
  EXPECT_EQ(events[5].slot, 101u);
}

TEST(EventRingTest, StalledWriterSlotSkippedNotTorn) {
  // The race the per-slot sequence tags exist for: a pid's writer claims a
  // slot and stalls (or dies) before publishing; the pid's next owner wraps
  // the ring past it. read() must skip the slot (odd tag, or stale
  // generation) instead of returning whatever half-written payload sits
  // there.
  std::atomic<std::uint64_t> head{0};
  EventSlot slots[4]{};
  const PidRing ring(head, slots, 4);
  const std::uint64_t stalled = ring.claim();  // seq 0, never published
  for (std::uint32_t i = 1; i <= 4; ++i) {
    // Seqs 1..4: seq 4 wraps onto the stalled slot's index (4 % 4 == 0)
    // and overwrites its claim tag.
    ring.push(make_event(EventKind::kEnter, i, i));
  }
  std::vector<Event> events;
  // Retained window is seqs 1..4, all published: nothing torn, and the
  // stalled seq-0 entry is outside the window entirely.
  EXPECT_EQ(ring.read(&events), 0u);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].ts, i + 1);
  EXPECT_EQ(ring.dropped(), 1u);

  // Now the stalled writer finally publishes — long after its slot was
  // recycled for seq 4. The stale even tag names seq 0, so the slot no
  // longer matches seq 4's expected tag and is skipped and counted.
  ring.publish(stalled, make_event(EventKind::kAbort, 99, 999));
  events.clear();
  EXPECT_EQ(ring.read(&events), 1u);
  ASSERT_EQ(events.size(), 3u);
  for (const Event& e : events) {
    EXPECT_NE(e.slot, 99u);  // the stale payload never surfaces
    EXPECT_NE(e.ts, 999u);
  }
}

TEST(EventRingTest, ClaimedButUnpublishedSlotInWindowIsSkipped) {
  std::atomic<std::uint64_t> head{0};
  EventSlot slots[8]{};
  const PidRing ring(head, slots, 8);
  ring.push(make_event(EventKind::kEnter, 1, 1));
  const std::uint64_t stalled = ring.claim();  // seq 1: odd tag, in window
  ring.push(make_event(EventKind::kGranted, 1, 3));
  std::vector<Event> events;
  EXPECT_EQ(ring.read(&events), 1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 1u);
  EXPECT_EQ(events[1].ts, 3u);
  // Late publish into a still-current slot heals it: the tag now matches.
  ring.publish(stalled, make_event(EventKind::kAbort, 1, 2));
  std::vector<Event> healed;
  EXPECT_EQ(ring.read(&healed), 0u);
  ASSERT_EQ(healed.size(), 3u);
  EXPECT_EQ(healed[1].ts, 2u);
  EXPECT_EQ(healed[1].kind, EventKind::kAbort);
  EXPECT_EQ(healed[1].seq, 1u);
}

TEST(EventRingTest, KindNames) {
  EXPECT_STREQ(event_kind_name(EventKind::kEnter), "enter");
  EXPECT_STREQ(event_kind_name(EventKind::kGranted), "granted");
  EXPECT_STREQ(event_kind_name(EventKind::kAbort), "abort");
  EXPECT_STREQ(event_kind_name(EventKind::kExit), "exit");
  EXPECT_STREQ(event_kind_name(EventKind::kSwitch), "switch");
  EXPECT_STREQ(event_kind_name(EventKind::kForcedExit), "forced-exit");
  EXPECT_STREQ(event_kind_name(EventKind::kCompleteGrant), "complete-grant");
  EXPECT_STREQ(event_kind_name(EventKind::kAbortOnBehalf), "forced-abort");
  EXPECT_STREQ(event_kind_name(EventKind::kResignal), "resignal");
  EXPECT_STREQ(event_kind_name(EventKind::kZombieRetire), "zombie-retire");
  EXPECT_STREQ(event_kind_name(EventKind::kFaCompleted), "fa-completed");
  EXPECT_STREQ(event_kind_name(EventKind::kFaCompensated), "fa-compensated");
  EXPECT_STREQ(event_kind_name(EventKind::kReentry), "re-entry");
  // The lifecycle kinds are the owner's own; the rest are a survivor's.
  for (int k = 1; k <= 13; ++k) {
    EXPECT_EQ(event_is_recovery(static_cast<EventKind>(k)), k >= 6) << k;
  }
}

// --- LatencyHistogram: the one cell both sinks place -----------------------

static_assert(sizeof(CounterCell) == 64,
              "the counter cell is one cache line, persisted in segments");
static_assert(sizeof(LatencyHistogram) == 576,
              "count, sum and 65 buckets padded to whole lines, persisted in "
              "segments");

TEST(HistogramTest, BucketGeometry) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1ull << 63), 64u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(2), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(3), 7u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(64), ~std::uint64_t{0});
}

TEST(HistogramTest, EmptySnapshot) {
  LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.p99, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(HistogramTest, SummaryStats) {
  LatencyHistogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 100u}) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_DOUBLE_EQ(s.mean, 26.5);
  // p50 rank = 2 -> value 2 lives in bucket 2 (upper bound 3).
  EXPECT_EQ(s.p50, 3u);
  // p99 rank = 4 -> 100 lives in bucket 7 (upper bound 127), which is also
  // the highest non-empty bucket.
  EXPECT_EQ(s.p99, 127u);
  EXPECT_EQ(s.max, 127u);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  h.record(7);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 7u);
  EXPECT_EQ(s.max, 7u);
}

TEST(HistogramTest, MergedCellsEqualOneCellFedBothSampleSets) {
  const std::vector<std::uint64_t> a = {0, 1, 5, 9, 300, 70000};
  const std::vector<std::uint64_t> b = {2, 2, 17, 1ull << 40};
  LatencyHistogram cells[2];
  LatencyHistogram one;
  for (const std::uint64_t v : a) cells[0].record(v);
  for (const std::uint64_t v : b) cells[1].record_shared(v);
  for (const std::uint64_t v : a) one.record(v);
  for (const std::uint64_t v : b) one.record(v);
  const auto merged = HistogramCells{cells, 2}.snapshot();
  const auto single = one.snapshot();
  EXPECT_EQ(merged.count, a.size() + b.size());
  EXPECT_EQ(merged.count, single.count);
  EXPECT_EQ(merged.sum, single.sum);
  EXPECT_DOUBLE_EQ(merged.mean, single.mean);
  EXPECT_EQ(merged.p50, single.p50);
  EXPECT_EQ(merged.p90, single.p90);
  EXPECT_EQ(merged.p99, single.p99);
  EXPECT_EQ(merged.max, single.max);
  EXPECT_EQ(merged.buckets, single.buckets);
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, CountersPerProcessAndTotals) {
  Metrics m(3);
  m.on_granted(0, 5);
  m.on_granted(0, 6);
  m.on_abort(1, 2);
  m.on_spin_iteration(2);
  m.on_spin_iteration(2);
  m.on_spin_iteration(2);
  m.on_findnext(0);
  m.on_switch(1);
  m.on_spin_node_recycle(2, 4);
  EXPECT_EQ(m.of(0).acquisitions, 2u);
  EXPECT_EQ(m.of(1).aborts, 1u);
  EXPECT_EQ(m.of(2).spin_iterations, 3u);
  const Counters t = m.totals();
  EXPECT_EQ(t.acquisitions, 2u);
  EXPECT_EQ(t.aborts, 1u);
  EXPECT_EQ(t.spin_iterations, 3u);
  EXPECT_EQ(t.findnext_ascents, 1u);
  EXPECT_EQ(t.instance_switches, 1u);
  EXPECT_EQ(t.spin_node_recycles, 4u);
}

TEST(MetricsTest, HandoffLatencyRecordedBetweenExitAndGrant) {
  Metrics m(2);
  m.on_granted(0, 0);           // tick 1, no pending hand-off
  m.on_exit(0, 0);              // tick 2, arms hand-off
  m.on_enter(1, 1);             // tick 3
  m.on_granted(1, 1);           // tick 4 -> latency 4 - 2 = 2
  const auto s = m.handoff().snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 2u);
}

TEST(MetricsTest, RingRecordsLifecycle) {
  Metrics m(2, /*ring_capacity=*/16);
  m.on_enter(0, 0);
  m.on_granted(0, 0);
  m.on_exit(0, 0);
  m.on_switch(1);
  const auto events = m.ring_snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kEnter);
  EXPECT_EQ(events[1].kind, EventKind::kGranted);
  EXPECT_EQ(events[2].kind, EventKind::kExit);
  EXPECT_EQ(events[3].kind, EventKind::kSwitch);
  EXPECT_EQ(events[3].slot, kNoSlot);
  // Logical clock: strictly increasing ticks.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].ts, events[i].ts);
  }
}

TEST(MetricsTest, CustomClock) {
  Metrics m(1, 4);
  std::uint64_t fake = 100;
  m.set_clock([&fake] { return fake; });
  m.on_enter(0, 0);
  fake = 250;
  m.on_granted(0, 0);
  const auto events = m.ring_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[1].ts, 250u);
}

TEST(MetricsTest, ResetClearsCountersKeepsRingHistory) {
  Metrics m(1, 8);
  m.on_granted(0, 0);
  m.reset();
  EXPECT_EQ(m.totals().acquisitions, 0u);
  EXPECT_EQ(m.ring_total(), 1u);  // documented: history retained
}

// Native threads write their own cells while a fifth thread polls the
// totals and the merged hand-off histogram. Every read is a relaxed load of
// an owner-stored word, so the reads are race-free (the TSan job runs this
// by its Native filter), and each pid's counters only grow between polls.
TEST(MetricsNative, ConcurrentReaderWhileWriting) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kRounds = 2000;
  ObservedAbortableLock lock(LockConfig{.max_threads = kThreads,
                                        .tree_width = 4});
  Metrics sink(kThreads);
  lock.set_metrics(&sink);

  std::atomic<bool> writers_done{false};
  std::uint64_t polls = 0;
  std::uint64_t decreases = 0;
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!writers_done.load(std::memory_order_acquire)) {
      const Counters t = sink.totals();
      const LatencyHistogram::Snapshot h = sink.handoff().snapshot();
      if (t.acquisitions < last) ++decreases;
      EXPECT_LE(h.p50, h.max);
      last = t.acquisitions;
      ++polls;
    }
  });

  std::deque<AbortSignal> signals(kThreads);
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> writers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      pal::Xoshiro256 rng(t * 131 + 7);
      std::uint64_t mine = 0;
      for (int r = 0; r < kRounds; ++r) {
        if (rng.below(10) == 0) {
          signals[t].raise();
        } else {
          signals[t].reset();
        }
        if (lock.enter(t, signals[t])) {
          ++mine;
          lock.exit(t);
        }
      }
      granted.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& w : writers) w.join();
  writers_done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(polls, 0u);
  EXPECT_EQ(decreases, 0u);
  const Counters t = sink.totals();
  EXPECT_EQ(t.acquisitions, granted.load());
  EXPECT_EQ(t.acquisitions + t.aborts, std::uint64_t{kThreads} * kRounds);
  EXPECT_LE(sink.handoff().snapshot().count, t.acquisitions);
}

// --- SinkHandle -------------------------------------------------------------

TEST(SinkHandleTest, NullBoundHandleIsInert) {
  SinkHandle<Metrics> h;  // never bound
  h.on_granted(0, 0);     // must not crash
  EXPECT_EQ(h.get(), nullptr);
}

TEST(SinkHandleTest, BoundHandleForwards) {
  Metrics m(1);
  SinkHandle<Metrics> h;
  h.bind(&m);
  h.on_granted(0, 3);
  EXPECT_EQ(m.totals().acquisitions, 1u);
}

// --- integration: instrumented one-shot lock on the counting model ----------

TEST(ObsIntegrationTest, OneShotSequentialLifecycle) {
  constexpr std::uint32_t kN = 4;
  model::CountingCcModel mdl(kN);
  core::OneShotLock<model::CountingCcModel, Metrics> lock(mdl, kN, 2);
  Metrics metrics(kN, 64);
  lock.set_metrics(&metrics);

  std::deque<std::atomic<bool>> signals(kN);
  for (std::uint32_t p = 0; p < kN; ++p) {
    const auto r = lock.enter(p, &signals[p]);
    ASSERT_TRUE(r.acquired);
    lock.exit(p);
  }

  const Counters t = metrics.totals();
  EXPECT_EQ(t.acquisitions, kN);
  EXPECT_EQ(t.aborts, 0u);
  // Every exit runs SignalNext.
  EXPECT_EQ(t.findnext_ascents, kN);

  // Sequential and uncontended: enter/granted/exit per process, in order.
  const auto events = metrics.ring_snapshot();
  ASSERT_EQ(events.size(), 3u * kN);
  for (std::uint32_t p = 0; p < kN; ++p) {
    EXPECT_EQ(events[3 * p].kind, EventKind::kEnter);
    EXPECT_EQ(events[3 * p].pid, p);
    EXPECT_EQ(events[3 * p].slot, p);  // FCFS doorway: slot == arrival order
    EXPECT_EQ(events[3 * p + 1].kind, EventKind::kGranted);
    EXPECT_EQ(events[3 * p + 2].kind, EventKind::kExit);
  }

  // Hand-offs: kN-1 exit->granted pairs.
  EXPECT_EQ(metrics.handoff().snapshot().count, kN - 1);
}

TEST(ObsIntegrationTest, AbortIsCounted) {
  model::CountingCcModel mdl(2);
  core::OneShotLock<model::CountingCcModel, Metrics> lock(mdl, 2, 2);
  Metrics metrics(2);
  lock.set_metrics(&metrics);

  std::deque<std::atomic<bool>> signals(2);
  ASSERT_TRUE(lock.enter(0, &signals[0]).acquired);
  signals[1].store(true, std::memory_order_release);
  EXPECT_FALSE(lock.enter(1, &signals[1]).acquired);
  lock.exit(0);

  EXPECT_EQ(metrics.totals().aborts, 1u);
  EXPECT_EQ(metrics.of(1).aborts, 1u);
  EXPECT_GT(metrics.of(1).spin_iterations, 0u);
}

}  // namespace
}  // namespace aml::obs
