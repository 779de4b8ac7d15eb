// Crash-surviving observability coverage: the segment-hosted ShmMetrics
// sink (per-pid counters, the claim-odd/publish-even event ring, recovery
// dispatch counters), the passage tracer that folds the ring into spans,
// and the aml_stat JSON snapshot — all read back the way tools/aml_stat
// reads them, including against a "victim" whose death is forged with an
// ESRCH os pid so each recovery dispatch arm can be staged deterministically
// in-process. Genuine SIGKILL coverage of the same assertions lives in
// shm_fork_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "aml/core/abortable_lock.hpp"
#include "aml/ipc/shm_table.hpp"
#include "aml/ipc/stat_snapshot.hpp"
#include "aml/obs/shm_metrics.hpp"
#include "aml/obs/trace_export.hpp"
#include "shm_test_segment.hpp"

namespace aml::ipc {
namespace {

using namespace std::chrono_literals;
using namespace shm_test;
using obs::Event;
using obs::EventKind;

constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

ShmTableConfig small_config() {
  ShmTableConfig cfg;
  cfg.nprocs = 4;
  cfg.stripes = 2;
  cfg.tree_width = 64;
  return cfg;
}

std::vector<Event> events_of_kind(const obs::ShmMetrics& shm,
                                  EventKind kind) {
  std::vector<Event> out;
  for (const Event& e : shm.ring_snapshot()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

// --- the shm ring itself ---------------------------------------------------

TEST(ShmIpcStat, LifecycleEventsLandInTheSegmentRing) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("stat-ring", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());
  {
    auto guard = session->acquire(std::uint64_t{7});
  }

  obs::ShmMetrics& shm = table->shm_metrics();
  // One full passage: enter, granted, exit — all attributed to the session's
  // dense pid, stamped with this OS process, in ring order.
  std::uint64_t torn = ~std::uint64_t{0};
  const std::vector<Event> events = shm.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  ASSERT_GE(events.size(), 3u);
  std::vector<EventKind> kinds;
  for (const Event& e : events) {
    EXPECT_EQ(e.pid, session->id());
    EXPECT_EQ(e.writer_os_pid, static_cast<std::uint64_t>(::getpid()));
    kinds.push_back(e.kind);
  }
  const std::vector<EventKind> expect = {
      EventKind::kEnter, EventKind::kGranted, EventKind::kExit};
  EXPECT_EQ(std::vector<EventKind>(kinds.begin(), kinds.begin() + 3),
            expect);

  const obs::Counters totals = shm.totals();
  EXPECT_EQ(totals.acquisitions, 1u);
  EXPECT_EQ(totals.aborts, 0u);
  EXPECT_EQ(shm.pid_counters(session->id()).acquisitions, 1u);
}

TEST(ShmIpcStat, RingWrapKeepsNewestAndCountsDropped) {
  ShmTableConfig cfg = small_config();
  cfg.ring_capacity = 16;  // tiny: 4 slots per pid, a passage or two wraps
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("stat-wrap", cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  auto a = table->open_session();
  auto b = table->open_session();
  ASSERT_TRUE(a && b);
  for (int i = 0; i < 16; ++i) {
    { auto guard = a->acquire(std::uint64_t{3}); }  // 3 events per passage
    if (i % 2 == 0) {
      auto guard = b->acquire(std::uint64_t{3});
    }
  }

  obs::ShmMetrics& shm = table->shm_metrics();
  const std::uint64_t per_pid = shm.ring_slots_per_pid();
  EXPECT_EQ(per_pid, 4u);
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  for (Pid p = 0; p < cfg.nprocs; ++p) {
    total += shm.ring_total(p);
    dropped += shm.ring_dropped(p);
  }
  EXPECT_GE(shm.ring_total(a->id()), 48u);
  EXPECT_GE(shm.ring_total(b->id()), 24u);
  EXPECT_EQ(shm.ring_total(), total);
  EXPECT_EQ(shm.ring_dropped(), dropped);
  EXPECT_EQ(dropped, shm.ring_total(a->id()) + shm.ring_total(b->id()) -
                         2 * per_pid);

  std::uint64_t torn = ~std::uint64_t{0};
  const std::vector<Event> events = shm.ring_snapshot(&torn);
  // Quiesced writers: every retained window is fully published.
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(events.size(), 2 * per_pid);
  // Each pid keeps its newest `per_pid` events, contiguous in its own seq
  // and ending at its newest sequence number.
  for (const Pid p : {a->id(), b->id()}) {
    std::vector<std::uint64_t> seqs;
    for (const Event& e : events) {
      if (e.pid == p) seqs.push_back(e.seq);
    }
    ASSERT_EQ(seqs.size(), per_pid) << "pid " << p;
    for (std::size_t i = 1; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], seqs[i - 1] + 1) << "pid " << p;
    }
    EXPECT_EQ(seqs.back(), shm.ring_total(p) - 1) << "pid " << p;
  }
}

TEST(ShmIpcStat, QuietPidEventsSurviveAnotherPidsFlood) {
  ShmTableConfig cfg = small_config();
  cfg.ring_capacity = 64;
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("stat-flood", cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto flooder = table->open_session();
  ASSERT_TRUE(victim && flooder);
  { auto guard = victim->acquire(std::uint64_t{1}); }
  // Far more events than the whole segment budget: one global ring would
  // have overwritten the victim's passage many times over.
  for (int i = 0; i < 200; ++i) {
    auto guard = flooder->acquire(std::uint64_t{1});
  }

  obs::ShmMetrics& shm = table->shm_metrics();
  EXPECT_GT(shm.ring_total(flooder->id()), 10u * cfg.ring_capacity);
  EXPECT_EQ(shm.ring_dropped(victim->id()), 0u);
  std::vector<EventKind> kinds;
  for (const Event& e : shm.ring_snapshot()) {
    if (e.pid == victim->id()) kinds.push_back(e.kind);
  }
  ASSERT_GE(kinds.size(), 3u);
  const std::vector<EventKind> expect = {
      EventKind::kEnter, EventKind::kGranted, EventKind::kExit};
  EXPECT_EQ(std::vector<EventKind>(kinds.begin(), kinds.begin() + 3),
            expect);
}

TEST(ShmIpcStat, MergedStreamOrdersHandOffsByTime) {
  ShmTableConfig cfg = small_config();
  cfg.ring_capacity = 1u << 14;  // nothing wraps
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("stat-merge", cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  constexpr int kPassages = 300;
  const std::uint64_t key = 11;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      auto session = table->open_session();
      ASSERT_TRUE(session.has_value());
      for (int i = 0; i < kPassages; ++i) {
        auto guard = session->acquire(key);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  obs::ShmMetrics& shm = table->shm_metrics();
  EXPECT_EQ(shm.ring_dropped(), 0u);
  std::uint64_t torn = ~std::uint64_t{0};
  const std::vector<Event> events = shm.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  // Time never runs backwards in the merged stream, and on the stripe every
  // grant follows the previous holder's exit: granted/exit strictly
  // alternate, each exit by the pid that was granted.
  const std::uint32_t stripe = table->stripe_of(key);
  Pid holder = Event::kNoPid;
  std::uint64_t grants = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) {
      EXPECT_LE(events[i - 1].ts, events[i].ts);
    }
    const Event& e = events[i];
    if (e.stripe != stripe) continue;
    if (e.kind == EventKind::kGranted) {
      EXPECT_EQ(holder, Event::kNoPid) << "grant before exit at " << i;
      holder = e.pid;
      ++grants;
    } else if (e.kind == EventKind::kExit) {
      EXPECT_EQ(holder, e.pid) << "exit by a non-holder at " << i;
      holder = Event::kNoPid;
    }
  }
  EXPECT_EQ(grants, 2u * kPassages);
  EXPECT_EQ(holder, Event::kNoPid);
}

TEST(ShmIpcStat, HandoffHistogramRecordsCrossSessionHandoffs) {
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("stat-handoff",
                                                  small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto a = table->open_session();
  auto b = table->open_session();
  ASSERT_TRUE(a && b);
  const std::uint64_t key = 5;
  for (int i = 0; i < 4; ++i) {
    { auto guard = a->acquire(key); }
    { auto guard = b->acquire(key); }
  }
  // Every grant after the first claims the previous exit's parked
  // timestamp (same stripe), regardless of which session held before.
  const obs::LatencyHistogram::Snapshot h =
      table->shm_metrics().handoff().snapshot();
  EXPECT_GE(h.count, 7u);
  EXPECT_GT(h.sum, 0u);
  EXPECT_GE(h.p99, h.p50);
}

// --- recovery dispatch arms: one typed event each, victim pid attached ----

TEST(ShmIpcStat, ForcedExitArmEmitsOneTypedEventWithVictim) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("stat-fexit", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);

  obs::ShmMetrics& shm = table->shm_metrics();
  const auto forced = events_of_kind(shm, EventKind::kForcedExit);
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0].victim, victim->id());
  EXPECT_EQ(forced[0].pid, survivor->id());  // the executor
  EXPECT_EQ(forced[0].stripe, s);

  const obs::ShmRecoverySnapshot rec = shm.recovery_totals();
  EXPECT_EQ(rec.forced_exits, 1u);
  EXPECT_EQ(rec.total(), 1u);
  EXPECT_EQ(shm.recovery_stripe(s).forced_exits, 1u);
  EXPECT_EQ(shm.recovery_stripe(1).forced_exits, 0u);
  // The sweep repaired something, so its latency landed in the segment.
  EXPECT_EQ(shm.sweep_latency().count, 1u);
}

TEST(ShmIpcStat, ZombieRetireArmEmitsOneTypedEventWithVictim) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("stat-zombie", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  // Forge a death inside the one remaining journal-blind window (v3): in
  // the one-shot doorway with no attempt recorded — the tail F&A may or may
  // not have run. The sweep must retire the pid as a zombie, repair
  // nothing, and say so in the ring. (The cleanup F&A window this test used
  // to forge is decidable now; see the ForgedCleanup* tests.)
  table->stripe(0).debug_set_phase(victim->id(), kDoorway);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 0u);  // zombies are not "recovered"

  obs::ShmMetrics& shm = table->shm_metrics();
  const auto retired = events_of_kind(shm, EventKind::kZombieRetire);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].victim, victim->id());
  EXPECT_EQ(retired[0].pid, survivor->id());
  EXPECT_EQ(shm.recovery_totals().zombie_retires, 1u);
  EXPECT_EQ(table->registry().state(victim->id()), ProcessRegistry::kZombie);
  EXPECT_EQ(table->recovery_stats().zombie_pids, 1u);

  // The zombie stays parked: later sweeps neither free nor re-retire it
  // (nothing rewrites its frozen kDoorway phase, and death detection only
  // acts on a live lease word).
  for (int sweep = 0; sweep < 3; ++sweep) {
    EXPECT_EQ(survivor->recover_dead(), 0u) << "sweep " << sweep;
    EXPECT_EQ(table->registry().state(victim->id()), ProcessRegistry::kZombie)
        << "sweep " << sweep;
    EXPECT_EQ(table->recovery_stats().zombie_pids, 1u) << "sweep " << sweep;
  }
  EXPECT_EQ(events_of_kind(shm, EventKind::kZombieRetire).size(), 1u);
  EXPECT_EQ(shm.recovery_totals().zombie_retires, 1u);

  // Its pid is never leased again: the remaining pids are, then the table
  // is full.
  std::vector<ShmNamedLockTable::Session> rest;
  while (auto session = table->open_session()) {
    EXPECT_NE(session->id(), victim->id());
    rest.push_back(std::move(*session));
  }
  EXPECT_EQ(rest.size(), small_config().nprocs - 2u);
  EXPECT_FALSE(table->open_session().has_value());
}

TEST(ShmIpcStat, JoinedVictimAbortedOnBehalfWithOneTypedEvent) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("stat-joined", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  // A full passage first so the journal's refcnt bookkeeping matches the
  // forged kJoined window (refcnt bumped, no doorway presence yet).
  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->stripe(s).exit(victim->id());
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->stripe(s).exit(victim->id());

  table->stripe(s).debug_forge_joined(victim->id());
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);

  obs::ShmMetrics& shm = table->shm_metrics();
  const auto aborted = events_of_kind(shm, EventKind::kAbortOnBehalf);
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted[0].victim, victim->id());
  EXPECT_EQ(aborted[0].pid, survivor->id());
  EXPECT_EQ(shm.recovery_totals().aborts_on_behalf, 1u);
  EXPECT_EQ(table->recovery_stats().forced_aborts, 1u);

  // The repair left the stripe acquirable.
  ASSERT_TRUE(table->stripe(s).enter(survivor->id(), nullptr).acquired);
  table->stripe(s).exit(survivor->id());
}

// --- passage tracer --------------------------------------------------------

TEST(ShmIpcStat, TracerClosesVictimSpanForcedWithRecoveryAnnotation) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("stat-trace", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  ASSERT_EQ(survivor->recover_dead(), 1u);
  {  // a normal passage after the sweep: its span must close un-forced
    auto guard = survivor->acquire(std::uint64_t{0});
  }

  const std::vector<Event> events =
      table->shm_metrics().ring_snapshot();
  const std::vector<obs::PassageSpan> spans =
      obs::assemble_passage_spans(events);

  // The crash-and-recover episode, structurally: the victim's span is
  // granted, closed, *forced*, terminal kind forced-exit, annotated with
  // the surviving executor's pid.
  const obs::PassageSpan* victim_span = nullptr;
  for (const obs::PassageSpan& span : spans) {
    if (span.pid == victim->id() && span.forced) victim_span = &span;
  }
  ASSERT_NE(victim_span, nullptr);
  EXPECT_TRUE(victim_span->granted);
  EXPECT_TRUE(victim_span->closed);
  EXPECT_EQ(victim_span->close_kind, EventKind::kForcedExit);
  EXPECT_EQ(victim_span->recovered_by, survivor->id());
  EXPECT_GE(victim_span->end_ns, victim_span->begin_ns);

  bool survivor_clean = false;
  for (const obs::PassageSpan& span : spans) {
    if (span.pid == survivor->id() && span.closed && !span.forced &&
        span.close_kind == EventKind::kExit) {
      survivor_clean = true;
    }
  }
  EXPECT_TRUE(survivor_clean);

  // The Chrome export of the same ring is loadable structure: complete
  // ("X") span events, the forced outcome, and the recovery instant.
  std::ostringstream trace;
  obs::write_chrome_trace(trace, events);
  const std::string json = trace.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"forced-exit\""), std::string::npos);
  EXPECT_NE(json.find("\"recovered_by\":" + std::to_string(survivor->id())),
            std::string::npos);
  EXPECT_NE(json.find("\"forced\":true"), std::string::npos);
}

TEST(ShmIpcStat, TracerSynthesizesSpanWhenOpeningEventWrapped) {
  // Ring wrap robustness: a terminal whose opening enter was overwritten
  // still yields a (partial) span instead of disappearing.
  std::vector<Event> events;
  Event term;
  term.kind = EventKind::kAbortOnBehalf;
  term.stripe = 1;
  term.pid = 2;      // executor
  term.victim = 0;   // victim whose enter was lost
  term.seq = 900;
  term.ts = 5'000;
  events.push_back(term);

  const std::vector<obs::PassageSpan> spans =
      obs::assemble_passage_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].pid, 0u);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_TRUE(spans[0].forced);
  EXPECT_EQ(spans[0].recovered_by, 2u);
  EXPECT_EQ(spans[0].close_kind, EventKind::kAbortOnBehalf);
}

// --- one vocabulary across placements --------------------------------------

std::vector<std::pair<EventKind, Pid>> kinds_and_pids(
    const std::vector<Event>& events) {
  std::vector<std::pair<EventKind, Pid>> out;
  for (const Event& e : events) out.emplace_back(e.kind, e.pid);
  return out;
}

template <typename Pred>
void spin_until(Pred done) {
  while (!done()) std::this_thread::sleep_for(100us);
}

bool has_enter_of(const std::vector<Event>& events, Pid p) {
  for (const Event& e : events) {
    if (e.kind == EventKind::kEnter && e.pid == p) return true;
  }
  return false;
}

// The same two-pid script through the in-process lock and through a
// one-stripe segment: pid 0 is granted and holds, pid 1 enters and aborts on
// its signal, pid 0 exits. Both sinks must report it in the same words, and
// both streams must render as a trace.
TEST(ShmIpcStat, SameScriptSameStreamInProcessAndInSegment) {
  obs::Metrics sink(2, /*ring_capacity=*/64);
  ObservedAbortableLock lock(LockConfig{.max_threads = 2});
  lock.set_metrics(&sink);
  {
    const AbortSignal quiet;
    AbortSignal stop;
    ASSERT_TRUE(lock.enter(0, quiet));
    std::thread waiter([&] { EXPECT_FALSE(lock.enter(1, stop)); });
    spin_until([&] { return has_enter_of(sink.ring_snapshot(), 1); });
    stop.raise();
    waiter.join();
    lock.exit(0);
  }

  ShmTableConfig cfg = small_config();
  cfg.stripes = 1;
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("stat-vocab", cfg, &error);
  ASSERT_NE(table, nullptr) << error;
  auto a = table->open_session();
  auto b = table->open_session();
  ASSERT_TRUE(a && b);
  ASSERT_EQ(a->id(), 0u);
  ASSERT_EQ(b->id(), 1u);
  const obs::ShmMetrics& shm = table->shm_metrics();
  {
    AbortSignal stop;
    auto guard = a->acquire(std::uint64_t{7});
    std::thread waiter([&] {
      EXPECT_FALSE(b->try_acquire(std::uint64_t{7}, stop).has_value());
    });
    spin_until([&] { return has_enter_of(shm.ring_snapshot(), 1); });
    stop.raise();
    waiter.join();
  }

  std::uint64_t torn = ~std::uint64_t{0};
  const std::vector<Event> local = sink.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  const std::vector<Event> placed = shm.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  const std::vector<std::pair<EventKind, Pid>> script = {
      {EventKind::kEnter, 0}, {EventKind::kGranted, 0},
      {EventKind::kEnter, 1}, {EventKind::kAbort, 1},
      {EventKind::kExit, 0},  {EventKind::kSwitch, 0}};
  EXPECT_EQ(kinds_and_pids(local), script);
  EXPECT_EQ(kinds_and_pids(placed), script);

  // Both placements count the script in the same cells. Spin iterations are
  // left out: the waiter spins until its signal lands, which is timing.
  const obs::Counters here = sink.totals();
  const obs::Counters there = shm.totals();
  EXPECT_EQ(here.acquisitions, there.acquisitions);
  EXPECT_EQ(here.aborts, there.aborts);
  EXPECT_EQ(here.findnext_ascents, there.findnext_ascents);
  EXPECT_EQ(here.instance_switches, there.instance_switches);
  EXPECT_EQ(here.spin_node_recycles, there.spin_node_recycles);
  EXPECT_EQ(sink.handoff().snapshot().count, shm.handoff().snapshot().count);

  for (const auto* events : {&local, &placed}) {
    std::ostringstream trace;
    obs::write_chrome_trace(trace, *events);
    const std::string json = trace.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"abort\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"outcome\":\"exit\""), std::string::npos) << json;
  }
}

// --- aml_stat snapshot -----------------------------------------------------

TEST(ShmIpcStat, StatJsonReportsVictimPhaseThenRecoveryCounters) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("stat-json", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);

  // Pre-sweep snapshot: the victim's last journaled phase is visible — the
  // post-mortem signal an operator reads off an orphaned segment.
  std::ostringstream pre;
  write_stat_json(pre, *table);
  const std::string before = pre.str();
  EXPECT_NE(before.find("\"phase\":\"holding\""), std::string::npos);
  EXPECT_NE(before.find("\"kind\":\"granted\""), std::string::npos);
  EXPECT_NE(before.find("\"recovery\":{\"forced_exits\":0"),
            std::string::npos);

  ASSERT_EQ(survivor->recover_dead(), 1u);

  // Post-sweep snapshot: the phase is repaired away, the dispatch counters
  // and the typed ring event say what happened.
  std::ostringstream post;
  write_stat_json(post, *table);
  const std::string after = post.str();
  EXPECT_EQ(after.find("\"phase\":\"holding\""), std::string::npos);
  EXPECT_NE(after.find("\"forced_exits\":1"), std::string::npos);
  EXPECT_NE(after.find("\"kind\":\"forced-exit\""), std::string::npos);
  EXPECT_NE(after.find("\"victim\":" + std::to_string(victim->id())),
            std::string::npos);
  EXPECT_NE(after.find("\"state\":\"free\""), std::string::npos);
}

// The registry entry's heartbeat is the pid's finished attempts, read from
// its shm counter cell: one per grant and one per timeout — not a count of
// acquire and release calls — and its age is the time since its last event.
TEST(ShmIpcStat, HeartbeatCountsAttemptsFromTheCounterCell) {
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("stat-heartbeat",
                                                  small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto holder = table->open_session();
  auto session = table->open_session();
  ASSERT_TRUE(holder && session);
  const std::uint64_t key = 5;
  constexpr int kGrants = 3;
  constexpr int kTimeouts = 2;
  {
    auto held = holder->acquire(key);
    for (int i = 0; i < kTimeouts; ++i) {
      EXPECT_FALSE(session->try_acquire_for(key, 1ms).has_value());
    }
  }
  for (int i = 0; i < kGrants; ++i) {
    auto guard = session->try_acquire_for(key, 2s);
    EXPECT_TRUE(guard.has_value());
  }

  std::ostringstream out;
  write_stat_json(out, *table);
  const std::string json = out.str();
  const std::size_t at =
      json.find("{\"pid\":" + std::to_string(session->id()) + ",\"state\"");
  ASSERT_NE(at, std::string::npos) << json;
  const std::string entry = json.substr(at, json.find("\"phases\"", at) - at);
  EXPECT_NE(entry.find("\"heartbeat\":" + std::to_string(kGrants + kTimeouts) +
                       ","),
            std::string::npos)
      << entry;
  EXPECT_NE(entry.find("\"heartbeat_age_ns\":"), std::string::npos) << entry;
}

TEST(ShmIpcStat, PeekConfigDiscoversCreatorLayout) {
  ScopedSegment seg("stat-peek");
  ShmTableConfig cfg = small_config();
  cfg.ring_capacity = 512;
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  // This is aml_stat's attach path: discover the layout from the segment's
  // own header, then attach with it — no out-of-band configuration.
  ShmTableConfig peeked;
  ASSERT_TRUE(ShmNamedLockTable::peek_config(seg.name, &peeked, &error))
      << error;
  EXPECT_EQ(peeked.nprocs, cfg.nprocs);
  EXPECT_EQ(peeked.stripes, cfg.stripes);
  EXPECT_EQ(peeked.tree_width, cfg.tree_width);
  EXPECT_EQ(peeked.ring_capacity, cfg.ring_capacity);

  auto replica = ShmNamedLockTable::attach(seg.name, peeked, &error);
  seg.unlink();
  ASSERT_NE(replica, nullptr) << error;
  // The replica reads the same segment-hosted metrics words.
  { auto guard = table->open_session()->acquire(std::uint64_t{1}); }
  EXPECT_EQ(replica->shm_metrics().totals().acquisitions, 1u);
}

// Every layout bump changes the construction replay or the meaning of a
// shm word (layout 7: one arena line per VersionedSpace record; layout 8:
// no quiescence epoch cell in the registry): a segment laid out by the
// previous layout's binary must be refused, never replayed.
TEST(ShmIpcStat, PreviousLayoutSegmentIsRejectedCleanly) {
  ScopedSegment seg("stat-prevlayout");
  const ShmTableConfig cfg = small_config();
  std::string error;
  auto table = ShmNamedLockTable::create(seg.name, cfg, &error);
  ASSERT_NE(table, nullptr) << error;
  ASSERT_EQ(kShmLayoutVersion, 8u);
  // Forge what a previous-layout creator leaves: its version in the header,
  // and a config hash other than ours (the layout version is mixed into it).
  ShmArena& arena = table->arena();
  arena.at<ServiceHeader>(ShmNamedLockTable::header_offset())
      ->layout_version.store(kShmLayoutVersion - 1, std::memory_order_seq_cst);
  arena.superblock().config_hash.store(shm_config_hash(cfg) ^ 1,
                                       std::memory_order_seq_cst);

  ShmTableConfig peeked;
  EXPECT_FALSE(ShmNamedLockTable::peek_config(seg.name, &peeked, &error));
  EXPECT_NE(error.find("layout version mismatch (have 7, want 8)"),
            std::string::npos)
      << error;
  error.clear();
  EXPECT_EQ(ShmNamedLockTable::attach(seg.name, cfg, &error), nullptr);
  seg.unlink();
  EXPECT_NE(error.find("config hash mismatch"), std::string::npos) << error;
}

TEST(ShmIpcStat, PeekConfigRejectsMissingSegment) {
  ShmTableConfig cfg;
  std::string error;
  EXPECT_FALSE(ShmNamedLockTable::peek_config(
      unique_segment_name("stat-absent"), &cfg, &error));
  EXPECT_FALSE(error.empty());
}

// --- layout ----------------------------------------------------------------

TEST(ShmIpcStat, FootprintCoversTheConstructionReplay) {
  for (const Pid nprocs : {1u, 3u, 4u, 8u}) {
    for (const std::uint32_t stripes : {1u, 2u, 16u}) {
      for (const std::uint32_t ring : {0u, 1u, 5u, 16u, 1000u, 1024u}) {
        const std::uint64_t footprint =
            obs::ShmMetrics::footprint_bytes(nprocs, stripes, ring);
        std::string error;
        auto arena = create_unlinked<ShmArena>("stat-footprint",
                                               footprint + 4096, 0, &error);
        ASSERT_NE(arena, nullptr) << error;
        const std::uint64_t before = arena->cursor();
        obs::ShmMetrics shm(*arena, nprocs, stripes, ring);
        EXPECT_LE(arena->cursor() - before, footprint)
            << nprocs << "/" << stripes << "/" << ring;
        EXPECT_EQ(shm.ring_slots_per_pid(), (ring + nprocs - 1) / nprocs);
      }
    }
  }
  // No bigger than the single-ring layout (version 3) at the benchmark's
  // shape, nprocs 4, stripes 16, ring 1024: 64-byte counter cells, stripe
  // words and recovery cells, one head word, 64-byte slots, two 576-byte
  // histograms and 8 lines of slop.
  constexpr std::uint64_t kSingleRingFootprint =
      4 * 64 + 16 * 64 + 16 * 64 + 64 + 1024 * 64 + 2 * 576 + 8 * 64;
  EXPECT_LE(obs::ShmMetrics::footprint_bytes(4, 16, 1024),
            kSingleRingFootprint);
}

}  // namespace
}  // namespace aml::ipc
