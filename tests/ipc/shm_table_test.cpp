// ShmNamedLockTable in-process coverage: create/attach sessions sharing the
// same segment, timed acquisition, simulated owner death driven through the
// full recovery protocol (journal dispatch, forced exit, registry reclaim,
// obs accounting), and the local TimerWheel left empty by timed attempts,
// dead or alive. Genuine cross-address-space behavior (fork + SIGKILL) lives in
// shm_fork_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/ipc/shm_table.hpp"
#include "shm_test_segment.hpp"

namespace aml::ipc {
namespace {

using namespace std::chrono_literals;
using namespace shm_test;

constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

ShmTableConfig small_config() {
  ShmTableConfig cfg;
  cfg.nprocs = 4;
  cfg.stripes = 2;
  cfg.tree_width = 64;
  return cfg;
}

TEST(ShmIpcTable, CreateAcquireReleaseCountsInObs) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("tbl-basic", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());
  {
    auto guard = session->acquire(std::uint64_t{7});
    EXPECT_LT(guard.stripe(), table->stripe_count());
  }
  {
    auto guard = session->acquire(std::string_view{"named-key"});
    (void)guard;
  }
  EXPECT_EQ(table->shm_metrics().totals().acquisitions, 2u);
  EXPECT_EQ(table->shm_metrics().totals().aborts, 0u);
  EXPECT_EQ(table->shm_metrics().heartbeat(session->id()), 2u);
  EXPECT_GT(table->shm_metrics().last_ns(session->id()), 0u);
}

TEST(ShmIpcTable, AttachedReplicaSharesTheLocks) {
  ScopedSegment seg("tbl-attach");
  std::string error;
  auto creator = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(creator, nullptr) << error;
  auto replica = ShmNamedLockTable::attach(seg.name, small_config(), &error);
  seg.unlink();
  ASSERT_NE(replica, nullptr) << error;

  auto a = creator->open_session();
  auto b = replica->open_session();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // The registry is shared: the replica's session got a distinct dense pid.
  EXPECT_NE(a->id(), b->id());

  const std::uint64_t key = 42;
  auto held = a->acquire(key);
  // The replica session contends on the *same* shm lock word: a deadline-
  // bounded attempt while the creator session holds must time out...
  EXPECT_FALSE(b->try_acquire_for(key, 30ms).has_value());
  held.release();
  // ...and succeed once released.
  auto reacquired = b->try_acquire_for(key, 2s);
  EXPECT_TRUE(reacquired.has_value());
  EXPECT_EQ(replica->shm_metrics().pid_counters(b->id()).aborts, 1u);
}

TEST(ShmIpcTable, AttachRejectsDifferentConfig) {
  ScopedSegment seg("tbl-cfgmismatch");
  std::string error;
  auto creator = ShmNamedLockTable::create(seg.name, small_config(), &error);
  ASSERT_NE(creator, nullptr) << error;

  ShmTableConfig other = small_config();
  other.stripes = 4;
  auto replica = ShmNamedLockTable::attach(seg.name, other, &error);
  seg.unlink();
  EXPECT_EQ(replica, nullptr);
  EXPECT_NE(error.find("config hash"), std::string::npos) << error;
}

/// The closed-form segment size (ShmNamedLockTable::segment_bytes) covers
/// what construction allocates, from one process to 32, one stripe to 16,
/// and the tallest tree to the flattest.
TEST(ShmIpcTable, SegmentBoundCoversTheConstructionReplay) {
  for (const Pid nprocs : {Pid{1}, Pid{4}, Pid{8}, Pid{32}}) {
    for (const std::uint32_t stripes : {1u, 16u}) {
      for (const std::uint32_t w : {2u, 8u, 64u}) {
        ShmTableConfig cfg;
        cfg.nprocs = nprocs;
        cfg.stripes = stripes;
        cfg.tree_width = w;
        std::string error;
        auto table =
            create_unlinked<ShmNamedLockTable>("tbl-bound", cfg, &error);
        ASSERT_NE(table, nullptr) << error;
        EXPECT_LE(table->arena().cursor(), table->arena().bytes())
            << "nprocs " << nprocs << " stripes " << stripes << " W " << w;
      }
    }
  }
}

TEST(ShmIpcTable, AbortableAcquireHonorsSignal) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("tbl-abort", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto a = table->open_session();
  auto b = table->open_session();
  ASSERT_TRUE(a && b);

  const std::uint64_t key = 9;
  auto held = a->acquire(key);
  AbortSignal signal;
  signal.raise();  // pre-raised: the attempt must abandon promptly
  EXPECT_FALSE(b->try_acquire(key, signal).has_value());
  held.release();
  signal.reset();
  EXPECT_TRUE(b->try_acquire(key, signal).has_value());
}

/// The tentpole recovery scenario, in-process: a session "dies" holding a
/// stripe's critical section (we drive the stripe directly so no RAII guard
/// releases it, then forge its OS pid to an ESRCH value), and a survivor's
/// recover_dead() sweep must force the victim's exit, free its registry
/// slot, and leave the stripe acquirable — in one bounded sweep.
TEST(ShmIpcTable, RecoverDeadHolderForcesExitAndReclaimsSlot) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("tbl-recover", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);

  const std::uint32_t s = 0;
  ASSERT_TRUE(table->stripe(s).enter(victim->id(), nullptr).acquired);
  EXPECT_EQ(table->stripe(s).peek_phase(victim->id()), kHolding);
  const std::uint64_t acquisitions_before =
      table->shm_metrics().totals().acquisitions;

  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);

  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.sweeps, 1u);
  EXPECT_EQ(stats.recovered_pids, 1u);
  EXPECT_EQ(stats.forced_exits, 1u);
  EXPECT_EQ(stats.forced_aborts, 0u);
  EXPECT_EQ(stats.zombie_pids, 0u);

  // The victim's journal is reset, its pid is re-leasable, and the stripe's
  // recovery seqlock advanced exactly once per stripe sweep.
  EXPECT_EQ(table->stripe(s).peek_phase(victim->id()), kIdle);
  EXPECT_EQ(table->registry().state(victim->id()), ProcessRegistry::kFree);
  EXPECT_EQ(table->stripe(s).recovery_epoch(survivor->id()), 1u);

  // The stripe is fully functional for the survivor (the forced exit freed
  // the critical section and the hand-off machinery).
  std::uint64_t key = 0;
  while (table->stripe_of(key) != s) ++key;
  {
    auto guard = survivor->try_acquire_for(key, 2s);
    ASSERT_TRUE(guard.has_value());
    EXPECT_EQ(guard->stripe(), s);
  }
  // The recovered passage's grant/exit flowed through the same obs hooks as
  // a live passage would have (complete-grant is not re-counted; the
  // survivor's reacquisition is).
  EXPECT_GT(table->shm_metrics().totals().acquisitions, acquisitions_before);

  // A second sweep finds nothing dead.
  EXPECT_EQ(survivor->recover_dead(), 0u);
  EXPECT_EQ(table->recovery_stats().recovered_pids, 1u);
}

/// The same death, 200 times over fresh victims on one stripe: every death
/// lands in a journaled window (kHolding), so each sweep forces exactly one
/// exit and none falls back to retiring the pid as a zombie, and the
/// survivor gets the key back every round.
TEST(ShmIpcTable, RepeatedHolderDeathsAreAllForcedExits) {
  std::string error;
  ShmTableConfig cfg = small_config();
  cfg.stripes = 1;
  auto table = create_unlinked<ShmNamedLockTable>("tbl-rounds", cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  constexpr std::uint64_t kRounds = 200;
  const std::uint64_t key = 7;
  auto survivor = table->open_session();
  ASSERT_TRUE(survivor.has_value());
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    auto victim = table->open_session();
    ASSERT_TRUE(victim.has_value()) << "round " << round;
    ASSERT_TRUE(table->stripe(0).enter(victim->id(), nullptr).acquired);
    table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
    ASSERT_EQ(survivor->recover_dead(), 1u) << "round " << round;
    ASSERT_TRUE(survivor->try_acquire_for(key, 2s).has_value())
        << "round " << round;
  }
  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.forced_exits, kRounds);
  EXPECT_EQ(stats.recovered_pids, kRounds);
  EXPECT_EQ(stats.zombie_pids, 0u);
}

/// A victim dead *between* passages (journal kIdle) costs nothing to
/// recover: no stripe repair, just the registry reclaim.
TEST(ShmIpcTable, RecoverIdleVictimReclaimsWithoutRepairs) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("tbl-idle", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(victim && survivor);
  {
    auto guard = victim->acquire(std::uint64_t{1});  // complete passage
  }

  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);
  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.recovered_pids, 1u);
  EXPECT_EQ(stats.forced_exits, 0u);
  EXPECT_EQ(stats.forced_aborts, 0u);
  EXPECT_EQ(table->registry().state(victim->id()), ProcessRegistry::kFree);
}

// --- recoverable F&A: forged deaths inside the journaled windows ----------

std::uint64_t ring_count(const ShmNamedLockTable& table,
                         obs::EventKind kind, Pid victim) {
  std::uint64_t n = 0;
  for (const auto& e : table.shm_metrics().ring_snapshot()) {
    if (e.kind == kind && e.victim == victim) ++n;
  }
  return n;
}

/// Deaths at kPreJoin — the join announced but maybe not landed — must be
/// decided by the journal, never retired as zombies: the un-landed join is
/// compensated (refcnt untouched) and the landed one is completed (one
/// Cleanup undoes it), both in the same sweep.
TEST(ShmIpcTable, ForgedPrejoinDeathsDecideByJournal) {
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("tbl-fa-prejoin",
                                                  small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto survivor = table->open_session();
  auto announced = table->open_session();  // died before the join CAS
  auto landed = table->open_session();     // died right after it landed
  ASSERT_TRUE(survivor && announced && landed);

  const std::uint32_t s = 0;
  table->stripe(s).debug_forge_prejoin_announced(announced->id());
  table->stripe(s).debug_forge_prejoin_landed(landed->id());
  ASSERT_EQ(table->stripe(s).peek_refcnt(survivor->id()), 1u);

  table->registry().debug_set_os_pid(announced->id(), kForgedDeadPid);
  table->registry().debug_set_os_pid(landed->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 2u);

  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.recovered_pids, 2u);
  EXPECT_EQ(stats.zombie_pids, 0u);
  // Only the landed join had a passage to unwind (one forced abort); the
  // compensated one left no footprint at all.
  EXPECT_EQ(stats.forced_aborts, 1u);
  EXPECT_EQ(stats.forced_exits, 0u);

  // The refcnt is exact again: the compensation did not decrement for an
  // increment that never landed, the completion undid the one that did.
  EXPECT_EQ(table->stripe(s).peek_refcnt(survivor->id()), 0u);
  EXPECT_EQ(table->stripe(s).peek_phase(announced->id()), kIdle);
  EXPECT_EQ(table->stripe(s).peek_phase(landed->id()), kIdle);
  EXPECT_EQ(table->registry().state(announced->id()), ProcessRegistry::kFree);
  EXPECT_EQ(table->registry().state(landed->id()), ProcessRegistry::kFree);

  // The decision is observable: one compensated, one completed, no retire.
  const obs::ShmRecoverySnapshot rec = table->shm_metrics().recovery_totals();
  EXPECT_EQ(rec.fa_compensated, 1u);
  EXPECT_EQ(rec.fa_completed, 1u);
  EXPECT_EQ(rec.zombie_retires, 0u);
  EXPECT_EQ(ring_count(*table, obs::EventKind::kFaCompensated,
                       announced->id()),
            1u);
  EXPECT_EQ(ring_count(*table, obs::EventKind::kFaCompleted, landed->id()),
            1u);
}

/// Deaths inside kCleanup with the release announced (not landed) or landed
/// (locals unsaved): the first reruns the whole Cleanup under a fresh
/// announcement, the second completes forward from the journaled pre-image —
/// no double decrement, no zombie.
TEST(ShmIpcTable, ForgedCleanupDeathsCompleteOrCompensate) {
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("tbl-fa-cleanup",
                                                  small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto survivor = table->open_session();
  auto announced = table->open_session();  // release announced, CAS unissued
  auto released = table->open_session();   // release landed, locals unsaved
  ASSERT_TRUE(survivor && announced && released);

  const std::uint32_t s = 0;
  table->stripe(s).debug_forge_cleanup_announced(announced->id());
  table->stripe(s).debug_forge_cleanup_released(released->id());
  // Two joins landed, one release landed: exactly one membership remains.
  ASSERT_EQ(table->stripe(s).peek_refcnt(survivor->id()), 1u);

  table->registry().debug_set_os_pid(announced->id(), kForgedDeadPid);
  table->registry().debug_set_os_pid(released->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 2u);

  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.recovered_pids, 2u);
  EXPECT_EQ(stats.zombie_pids, 0u);
  EXPECT_EQ(stats.forced_aborts, 2u);

  // Exactly one decrement ran per landed join: the rerun released the
  // announced victim's hold, the completion did NOT re-release the landed
  // one. A double decrement would underflow the (checked) refcnt.
  EXPECT_EQ(table->stripe(s).peek_refcnt(survivor->id()), 0u);
  EXPECT_EQ(table->registry().state(announced->id()), ProcessRegistry::kFree);
  EXPECT_EQ(table->registry().state(released->id()), ProcessRegistry::kFree);

  const obs::ShmRecoverySnapshot rec = table->shm_metrics().recovery_totals();
  EXPECT_EQ(rec.fa_compensated, 1u);
  EXPECT_EQ(rec.fa_completed, 1u);
  EXPECT_EQ(rec.zombie_retires, 0u);

  // The repaired stripe still grants.
  std::uint64_t key = 0;
  while (table->stripe_of(key) != s) ++key;
  EXPECT_TRUE(survivor->try_acquire_for(key, 2s).has_value());
}

/// Death with the instance switch announced but its CAS never issued: the
/// recoverer must redo the identical switch under the *same* sequence number
/// (the journaled pre-image still matches), installing the next one-shot.
TEST(ShmIpcTable, ForgedSwitchAnnouncedDeathRedoesTheSwitch) {
  std::string error;
  auto table = create_unlinked<ShmNamedLockTable>("tbl-fa-switch",
                                                  small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto survivor = table->open_session();
  auto victim = table->open_session();
  ASSERT_TRUE(survivor && victim);

  const std::uint32_t s = 0;
  const std::uint32_t installed_before =
      table->stripe(s).peek_installed(survivor->id());
  // Sole member: the forge's release observes refcnt 1 and announces the
  // switch before "dying".
  table->stripe(s).debug_forge_cleanup_switch_announced(victim->id());
  ASSERT_EQ(table->stripe(s).peek_refcnt(survivor->id()), 0u);

  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);

  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.recovered_pids, 1u);
  EXPECT_EQ(stats.zombie_pids, 0u);
  EXPECT_EQ(stats.forced_aborts, 1u);

  // The redo landed: a fresh one-shot instance is installed and the victim's
  // slot is clean.
  EXPECT_NE(table->stripe(s).peek_installed(survivor->id()), installed_before);
  EXPECT_EQ(table->stripe(s).peek_refcnt(survivor->id()), 0u);
  EXPECT_EQ(table->stripe(s).peek_phase(victim->id()), kIdle);
  EXPECT_EQ(table->registry().state(victim->id()), ProcessRegistry::kFree);
  EXPECT_EQ(table->shm_metrics().recovery_totals().fa_completed, 1u);
  EXPECT_EQ(
      ring_count(*table, obs::EventKind::kFaCompleted, victim->id()), 1u);

  // The switched-to instance grants normally.
  std::uint64_t key = 0;
  while (table->stripe_of(key) != s) ++key;
  EXPECT_TRUE(survivor->try_acquire_for(key, 2s).has_value());
}

// --- the spin-node pool ---------------------------------------------------

/// Acquire and release `key` `n` times: a lone passer is always last out,
/// so every passage switches the stripe's instance and allocates a node.
void solo_passages(ShmNamedLockTable::Session& session, std::uint64_t key,
                   int n) {
  for (int i = 0; i < n; ++i) {
    auto guard = session.acquire(key);
    (void)guard;
  }
}

TEST(ShmIpcTable, SpinNodeRecyclesReachTheSegmentCounters) {
  std::string error;
  const ShmTableConfig cfg = small_config();
  auto table = create_unlinked<ShmNamedLockTable>("tbl-recycle", cfg, &error);
  ASSERT_NE(table, nullptr) << error;
  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());

  // More switches than a pid's N+1 nodes force reclaim scans.
  const int per_pool = static_cast<int>(cfg.nprocs) + 1;
  solo_passages(*session, 7, 3 * per_pool);
  const auto totals = table->shm_metrics().totals();
  EXPECT_EQ(totals.instance_switches, 3u * per_pool);
  EXPECT_GT(totals.spin_node_recycles, 0u);
}

/// A pid that died inside its reclaim scan, between each node's go reset and
/// its free mark, must not lose those nodes: N+1 per pid still guarantees
/// every later switch a node.
TEST(ShmIpcTable, TornSpinNodeReclaimIsFinishedNotLeaked) {
  std::string error;
  const ShmTableConfig cfg = small_config();
  auto table = create_unlinked<ShmNamedLockTable>("tbl-torn", cfg, &error);
  ASSERT_NE(table, nullptr) << error;
  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());

  const std::uint64_t key = 7;
  const int per_pool = static_cast<int>(cfg.nprocs) + 1;
  solo_passages(*session, key, per_pool);  // every node issued, most retired
  table->stripe(table->stripe_of(key)).debug_forge_torn_reclaim(session->id());

  solo_passages(*session, key, 2 * per_pool);
  EXPECT_EQ(table->shm_metrics().totals().instance_switches, 3u * per_pool);
}

// --- a dead session leaves no deadline behind ---------------------------

// A victim times out behind a holder and then dies (forged). Its attempt
// cancelled its own deadline on the way out, so recovery finds none armed,
// and the pid's next session starts from a lowered signal even though the
// wheel raised the victim's.
TEST(ShmIpcTable, RecoveryAfterTimedOutVictimFindsNoDeadline) {
  std::string error;
  auto table =
      create_unlinked<ShmNamedLockTable>("tbl-wheel", small_config(), &error);
  ASSERT_NE(table, nullptr) << error;

  auto holder = table->open_session();
  auto victim = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(holder && victim && survivor);

  const std::uint64_t key = 3;
  {
    auto held = holder->acquire(key);
    EXPECT_FALSE(victim->try_acquire_for(key, 2ms).has_value());
  }
  table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);
  EXPECT_EQ(survivor->recover_dead(), 1u);
  EXPECT_EQ(table->pending_deadlines(), 0u);

  auto successor = table->open_session();
  ASSERT_TRUE(successor.has_value());
  EXPECT_EQ(successor->id(), victim->id());
  EXPECT_TRUE(successor->try_acquire_for(key, 2s).has_value());
}

// Deadline-bounded attempts from several threads, each on its own session,
// with budgets short enough that many fire mid-attempt: every attempt
// cancels its own deadline, so none stays armed and no stripe is left held.
TEST(ShmIpcTableStress, TimedAttemptsLeaveNoArmedDeadline) {
  std::string error;
  ShmTableConfig cfg = small_config();
  cfg.stripes = 4;
  auto table =
      create_unlinked<ShmNamedLockTable>("tbl-timedstress", cfg, &error);
  ASSERT_NE(table, nullptr) << error;

  constexpr int kThreads = 3;
  constexpr int kAttempts = 2000;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> granted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &granted, t] {
      auto session = table->open_session();
      ASSERT_TRUE(session.has_value());
      std::mt19937 rng(static_cast<std::uint32_t>(t + 1));
      for (int i = 0; i < kAttempts; ++i) {
        const std::uint64_t key = rng() % 4;
        const auto budget = std::chrono::microseconds(1 + rng() % 20);
        if (auto guard = session->try_acquire_for(key, budget)) {
          granted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_GT(granted.load(), 0u);
  EXPECT_EQ(table->pending_deadlines(), 0u);
  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());
  std::vector<bool> acquired(table->stripe_count(), false);
  for (std::uint64_t key = 0; key < 256; ++key) {
    auto guard = session->try_acquire_for(key, 2s);
    ASSERT_TRUE(guard.has_value()) << "key " << key;
    acquired[guard->stripe()] = true;
  }
  for (std::uint32_t s = 0; s < table->stripe_count(); ++s) {
    EXPECT_TRUE(acquired[s]) << "stripe " << s;
  }
}

}  // namespace
}  // namespace aml::ipc
