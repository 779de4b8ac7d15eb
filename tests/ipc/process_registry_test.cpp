// ProcessRegistry: lease/release lifecycle, the atomic death-pinned
// recovery claim (a claim can never land on a live or re-leased holder),
// the os_pid-before-free release ordering, zombie retirement, and the
// slot-reclamation property test — simulated owner deaths plus recovery
// sweeps never yield two live holders of the same dense pid, and stale
// (token-mismatched) releases never free a successor's lease.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "aml/ipc/process_registry.hpp"
#include "aml/ipc/shm_arena.hpp"

namespace aml::ipc {
namespace {

using model::Pid;

/// A pid above the kernel's default pid_max: kill() reports ESRCH for it,
/// which is exactly the signal dead() keys on.
constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

struct RegistryFixture {
  explicit RegistryFixture(Pid nprocs)
      : name("/aml-test-reg-" + std::to_string(::getpid()) + "-" +
             std::to_string(next_id())) {
    std::string error;
    arena = ShmArena::create(name, 1 << 16, 0, &error);
    AML_ASSERT(arena != nullptr, "fixture arena create failed");
    registry = std::make_unique<ProcessRegistry>(*arena, nprocs);
  }
  ~RegistryFixture() { ShmArena::unlink(name); }

  static int next_id() {
    static int counter = 0;
    return counter++;
  }

  std::string name;
  std::unique_ptr<ShmArena> arena;
  std::unique_ptr<ProcessRegistry> registry;
};

TEST(ShmIpcRegistry, LeasesLowestFreeAndReleases) {
  RegistryFixture f(3);
  ProcessRegistry& reg = *f.registry;

  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  EXPECT_EQ(reg.try_lease(&t0), 0u);
  EXPECT_EQ(reg.try_lease(&t1), 1u);
  EXPECT_EQ(reg.state(0), ProcessRegistry::kLive);
  EXPECT_EQ(reg.os_pid(0), static_cast<std::uint64_t>(::getpid()));

  reg.release(0, t0);
  EXPECT_EQ(reg.state(0), ProcessRegistry::kFree);
  EXPECT_EQ(reg.os_pid(0), 0u);

  // The freed slot is the lowest again; its lease word carries a fresh nonce.
  std::uint64_t t0b = 0;
  EXPECT_EQ(reg.try_lease(&t0b), 0u);
  EXPECT_NE(t0b, t0);
}

TEST(ShmIpcRegistry, FullRegistryRejectsLease) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  EXPECT_EQ(reg.try_lease(), 0u);
  EXPECT_EQ(reg.try_lease(), 1u);
  EXPECT_EQ(reg.try_lease(), 2u);  // == nprocs: full
}

TEST(ShmIpcRegistry, DeadDetectsForgedEsrchPidOnly) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  ASSERT_EQ(reg.try_lease(), 0u);

  EXPECT_FALSE(reg.dead(0));  // our own live pid
  EXPECT_FALSE(reg.dead(1));  // free slot

  reg.debug_set_os_pid(0, kForgedDeadPid);
  EXPECT_TRUE(reg.dead(0));

  // The unpublished-pid window (os_pid == 0) is alive by definition.
  reg.debug_set_os_pid(0, 0);
  EXPECT_FALSE(reg.dead(0));
}

/// The v3 pid-reuse hardening: ESRCH alone cannot tell a live holder from
/// an unrelated process the kernel recycled the pid to. A published start
/// time that contradicts the live process's start time is death evidence;
/// an unknown start time on either side is evidence of nothing.
TEST(ShmIpcRegistry, StartTimeMismatchDetectsPidReuse) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  ASSERT_EQ(reg.try_lease(), 0u);

  EXPECT_EQ(reg.os_pid(0), static_cast<std::uint64_t>(::getpid()));
#if defined(__linux__)
  // On Linux the lease published our real kernel start time.
  const std::uint64_t self_start =
      process_start_ticks(static_cast<std::uint64_t>(::getpid()));
  ASSERT_NE(self_start, 0u);
  EXPECT_EQ(reg.os_start(0), self_start);
  EXPECT_FALSE(reg.dead(0));

  // Same pid answers, but the published start names a different (dead)
  // incarnation: that is pid reuse, and the holder is provably dead — the
  // exact signal a restarted process uses to recognize its own old slot
  // even when the kernel recycled its pid.
  reg.debug_set_os_start(0, self_start + 1);
  EXPECT_TRUE(reg.dead(0));

  // Unknown published start degrades conservatively to v1: no evidence,
  // never a false death.
  reg.debug_set_os_start(0, 0);
  EXPECT_FALSE(reg.dead(0));
#else
  EXPECT_EQ(reg.os_start(0), 0u);  // portable fallback: unknown
  EXPECT_FALSE(reg.dead(0));
#endif
}

/// Restart re-entry at the registry layer: try_reattach is the survivor
/// claim pinned to the exact previous lease token, and repossess converts
/// the claim back into a live lease under the caller's identity.
TEST(ShmIpcRegistry, ReattachRequiresExactTokenAndDeadHolder) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  std::uint64_t token = 0;
  ASSERT_EQ(reg.try_lease(&token), 0u);

  // A live holder (ourselves) is not reattachable even with the right
  // token: the previous incarnation must be provably dead.
  EXPECT_FALSE(reg.try_reattach(0, token));
  EXPECT_EQ(reg.state(0), ProcessRegistry::kLive);

  reg.debug_set_os_pid(0, kForgedDeadPid);
  // Wrong token (bumped nonce): refuses even though the holder is dead.
  EXPECT_FALSE(reg.try_reattach(0, token + (ProcessRegistry::kStateMask + 1)));
  // Exact token + dead holder: the exclusive claim lands.
  ASSERT_TRUE(reg.try_reattach(0, token));
  EXPECT_EQ(reg.state(0), ProcessRegistry::kRecovering);
  // No survivor can double-claim while we hold it.
  EXPECT_FALSE(reg.try_claim_recovery(0));

  const std::uint64_t fresh = reg.repossess(0);
  EXPECT_NE(fresh, token);
  EXPECT_EQ(reg.state(0), ProcessRegistry::kLive);
  EXPECT_EQ(reg.os_pid(0), static_cast<std::uint64_t>(::getpid()));

  // The old token is spent: a second re-entry attempt with it must refuse
  // (the nonce moved on), and an orderly release under the fresh token
  // still works.
  reg.debug_set_os_pid(0, kForgedDeadPid);
  EXPECT_FALSE(reg.try_reattach(0, token));
  reg.release(0, fresh);
  EXPECT_EQ(reg.state(0), ProcessRegistry::kFree);
}

/// A survivor sweep that wins the race retires or frees the slot, after
/// which the restarted process's reattach must refuse and fall back to a
/// fresh lease.
TEST(ShmIpcRegistry, ReattachLosesToCompletedSurvivorSweep) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  std::uint64_t token = 0;
  ASSERT_EQ(reg.try_lease(&token), 0u);
  reg.debug_set_os_pid(0, kForgedDeadPid);

  ASSERT_TRUE(reg.try_claim_recovery(0));
  reg.finish_recovery(0, /*zombie=*/false);
  EXPECT_FALSE(reg.try_reattach(0, token));
  EXPECT_EQ(reg.state(0), ProcessRegistry::kFree);
}

/// Epoch-based zombie reclamation: retirement opens a new quiescence epoch,
/// and the retired pid becomes leasable again only once every live slot has
/// journaled an idle point at or after that epoch.
TEST(ShmIpcRegistry, ZombieReclaimWaitsForFullQuiescence) {
  RegistryFixture f(3);
  ProcessRegistry& reg = *f.registry;
  ASSERT_EQ(reg.try_lease(), 0u);  // the future zombie
  ASSERT_EQ(reg.try_lease(), 1u);  // a bystander, idle-marked at epoch 0

  reg.debug_set_os_pid(0, kForgedDeadPid);
  ASSERT_TRUE(reg.try_claim_recovery(0));
  reg.finish_recovery(0, /*zombie=*/true);
  ASSERT_EQ(reg.state(0), ProcessRegistry::kZombie);
  EXPECT_EQ(reg.epoch(), 1u);
  EXPECT_EQ(reg.retired_epoch(0), 1u);

  // Only zombies are reclaimable, and not before the bystander (whose idle
  // mark predates the retirement) passes through an idle point.
  EXPECT_FALSE(reg.try_reclaim_zombie(1));
  EXPECT_FALSE(reg.try_reclaim_zombie(0));
  EXPECT_EQ(reg.state(0), ProcessRegistry::kZombie);

  reg.note_idle(1);
  EXPECT_TRUE(reg.try_reclaim_zombie(0));
  EXPECT_EQ(reg.state(0), ProcessRegistry::kFree);
  // The reclaimed pid is ordinarily leasable again — retirement is no
  // longer permanent pid-space leakage.
  EXPECT_EQ(reg.try_lease(), 0u);
}

TEST(ShmIpcRegistry, RecoveryClaimIsExclusiveAndFreesSlot) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  ASSERT_EQ(reg.try_lease(), 0u);
  reg.debug_set_os_pid(0, kForgedDeadPid);

  ASSERT_TRUE(reg.try_claim_recovery(0));
  EXPECT_EQ(reg.state(0), ProcessRegistry::kRecovering);
  // A second survivor racing the claim loses: the slot is no longer kLive.
  EXPECT_FALSE(reg.try_claim_recovery(0));

  reg.finish_recovery(0, /*zombie=*/false);
  EXPECT_EQ(reg.state(0), ProcessRegistry::kFree);
  EXPECT_EQ(reg.try_lease(), 0u);  // reclaimable
}

TEST(ShmIpcRegistry, ZombieRetirementIsTerminal) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  ASSERT_EQ(reg.try_lease(), 0u);
  reg.debug_set_os_pid(0, kForgedDeadPid);
  ASSERT_TRUE(reg.try_claim_recovery(0));
  reg.finish_recovery(0, /*zombie=*/true);

  EXPECT_EQ(reg.state(0), ProcessRegistry::kZombie);
  // try_lease skips the retired pid and hands out the next slot.
  EXPECT_EQ(reg.try_lease(), 1u);
  EXPECT_EQ(reg.try_lease(), 2u);  // the rest is full
  EXPECT_FALSE(reg.dead(0));
  EXPECT_FALSE(reg.try_claim_recovery(0));
}

/// The recovery claim must re-establish death itself, under the same lease
/// word it CASes from: a bare "state is kLive" claim would let a survivor
/// act on a stale dead() observation and claim a slot that has since been
/// recovered and re-leased to a LIVE process (whose critical section the
/// recovery would then force-exit).
TEST(ShmIpcRegistry, ClaimRefusesLiveHolder) {
  RegistryFixture f(2);
  ProcessRegistry& reg = *f.registry;
  ASSERT_EQ(reg.try_lease(), 0u);

  // Live holder (our own pid): kLive alone must not be claimable.
  EXPECT_EQ(reg.state(0), ProcessRegistry::kLive);
  EXPECT_FALSE(reg.try_claim_recovery(0));

  // The TOCTOU endpoint: death observed (dead() true), then the slot is
  // recovered and re-leased to a live holder before the claim lands. The
  // late claim must lose against the re-leased live slot.
  reg.debug_set_os_pid(0, kForgedDeadPid);
  ASSERT_TRUE(reg.dead(0));  // a survivor's stale observation...
  ASSERT_TRUE(reg.try_claim_recovery(0));
  reg.finish_recovery(0, /*zombie=*/false);
  ASSERT_EQ(reg.try_lease(), 0u);  // ...re-leased, live again...
  EXPECT_FALSE(reg.dead(0));
  EXPECT_FALSE(reg.try_claim_recovery(0));  // ...so the claim refuses
  EXPECT_EQ(reg.state(0), ProcessRegistry::kLive);
}

/// release() must clear os_pid *before* the slot becomes leasable: with the
/// reverse order, a racing try_lease wins the freed slot and publishes its
/// pid, and the old holder's trailing os_pid=0 erases it — making a later
/// crash of the successor permanently undetectable. Two threads ping-pong a
/// single slot; the holder's published pid must never read back as 0.
TEST(ShmIpcRegistry, ReleaseNeverErasesSuccessorOsPid) {
  RegistryFixture f(1);
  ProcessRegistry& reg = *f.registry;

  std::atomic<bool> failed{false};
  auto contender = [&reg, &failed] {
    for (int i = 0; i < 20000 && !failed.load(std::memory_order_relaxed);
         ++i) {
      std::uint64_t token = 0;
      if (reg.try_lease(&token) != 0) continue;
      // While we hold the lease, only we may write os_pid (the peer's
      // release path may touch it only under its own exclusive claim,
      // which our live lease makes unwinnable).
      for (int spin = 0; spin < 8; ++spin) {
        if (reg.os_pid(0) != static_cast<std::uint64_t>(::getpid())) {
          failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
      reg.release(0, token);
    }
  };
  std::thread a(contender);
  std::thread b(contender);
  a.join();
  b.join();
  EXPECT_FALSE(failed.load()) << "a release erased the successor's os_pid";
}

TEST(ShmIpcRegistry, StaleTokenReleaseCannotFreeSuccessorLease) {
  RegistryFixture f(1);
  ProcessRegistry& reg = *f.registry;

  std::uint64_t victim_token = 0;
  ASSERT_EQ(reg.try_lease(&victim_token), 0u);

  // A survivor declares us dead and recovers the slot...
  reg.debug_set_os_pid(0, kForgedDeadPid);
  ASSERT_TRUE(reg.try_claim_recovery(0));
  reg.finish_recovery(0, false);
  // ...and a successor re-leases it.
  std::uint64_t successor_token = 0;
  ASSERT_EQ(reg.try_lease(&successor_token), 0u);

  // The original holder's (late) release must be a no-op: its token nonce
  // is stale, so the successor keeps the lease.
  reg.release(0, victim_token);
  EXPECT_EQ(reg.state(0), ProcessRegistry::kLive);
  EXPECT_EQ(reg.os_pid(0), static_cast<std::uint64_t>(::getpid()));

  reg.release(0, successor_token);
  EXPECT_EQ(reg.state(0), ProcessRegistry::kFree);
}

// --- satellite: slot-reclamation property test ----------------------------

/// Drives a randomized schedule of lease / orderly-release / simulated-death
/// + recovery / stale-release / zombie-retirement / idle-mark / reclamation
/// operations and checks after every step that no dense pid has two
/// believed-live holders. The model mirrors what real processes know: a
/// holder keeps (id, token) until it releases, or until a death simulation
/// moves it to the stale set (whose late releases must no-op); the model
/// also tracks its own epoch clock and per-holder idle marks, so the
/// reclamation gate is checked against an independent oracle.
TEST(ShmIpcRegistryProperty, ReclaimAfterOwnerDeathNeverDuplicatesLiveIds) {
  constexpr Pid kProcs = 4;
  RegistryFixture f(kProcs);
  ProcessRegistry& reg = *f.registry;

  std::vector<std::pair<Pid, std::uint64_t>> live;   // believed-live leases
  std::vector<std::pair<Pid, std::uint64_t>> stale;  // recovered under us
  std::vector<Pid> zombies;                          // retired, unreclaimed
  std::uint64_t model_epoch = 0;          // mirrors the registry's counter
  std::uint64_t idle_mark[kProcs] = {};   // model: last idled at this epoch
  std::uint64_t retired_at[kProcs] = {};  // model: retirement epoch
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };

  for (int step = 0; step < 4000; ++step) {
    switch (next(7)) {
      case 0: {  // lease
        std::uint64_t token = 0;
        const Pid id = reg.try_lease(&token);
        if (id < kProcs) {
          // A fresh lease must never alias a believed-live holder, nor a
          // retired-but-unreclaimed zombie pid.
          for (const auto& h : live) ASSERT_NE(h.first, id) << "step " << step;
          for (const Pid z : zombies) ASSERT_NE(z, id) << "step " << step;
          live.emplace_back(id, token);
          idle_mark[id] = model_epoch;  // try_lease stamps a fresh idle mark
        }
        break;
      }
      case 1: {  // orderly release
        if (live.empty()) break;
        const std::size_t k = next(live.size());
        reg.release(live[k].first, live[k].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 2: {  // simulated owner death + survivor recovery sweep
        if (live.empty()) break;
        const std::size_t k = next(live.size());
        const Pid id = live[k].first;
        reg.debug_set_os_pid(id, kForgedDeadPid);
        ASSERT_TRUE(reg.dead(id));
        ASSERT_TRUE(reg.try_claim_recovery(id));
        reg.finish_recovery(id, /*zombie=*/false);
        stale.push_back(live[k]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 3: {  // stale release from a "dead" holder: must not free anything
        if (stale.empty()) break;
        const std::size_t k = next(stale.size());
        const Pid id = stale[k].first;
        const bool was_live = reg.state(id) == ProcessRegistry::kLive;
        reg.release(id, stale[k].second);
        // A successor's lease (if any) survives the stale release.
        EXPECT_EQ(reg.state(id) == ProcessRegistry::kLive, was_live)
            << "stale release freed a successor's lease at step " << step;
        stale.erase(stale.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 4: {  // simulated death in the journal-blind window: retirement
        if (live.empty()) break;
        const std::size_t k = next(live.size());
        const Pid id = live[k].first;
        reg.debug_set_os_pid(id, kForgedDeadPid);
        ASSERT_TRUE(reg.try_claim_recovery(id));
        reg.finish_recovery(id, /*zombie=*/true);
        ++model_epoch;  // retirement opens a new quiescence epoch
        retired_at[id] = model_epoch;
        ASSERT_EQ(reg.epoch(), model_epoch) << "step " << step;
        zombies.push_back(id);
        stale.push_back(live[k]);  // its late release must still no-op
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 5: {  // reclamation attempt, checked against the model's gate
        if (zombies.empty()) break;
        const std::size_t k = next(zombies.size());
        const Pid id = zombies[k];
        bool quiesced = true;
        for (const auto& h : live) {
          if (idle_mark[h.first] < retired_at[id]) quiesced = false;
        }
        EXPECT_EQ(reg.try_reclaim_zombie(id), quiesced)
            << "reclamation gate disagrees with the model at step " << step;
        if (quiesced) {
          EXPECT_EQ(reg.state(id), ProcessRegistry::kFree) << "step " << step;
          zombies.erase(zombies.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          EXPECT_EQ(reg.state(id), ProcessRegistry::kZombie)
              << "unquiesced reclaim must leave the retirement, step "
              << step;
        }
        break;
      }
      case 6: {  // a live holder reaches a no-footprint point
        if (live.empty()) break;
        const Pid id = live[next(live.size())].first;
        reg.note_idle(id);
        idle_mark[id] = model_epoch;
        break;
      }
    }

    // Global invariant: every believed-live holder's slot is kLive, and no
    // two holders share an id.
    std::vector<Pid> ids;
    for (const auto& h : live) {
      EXPECT_EQ(reg.state(h.first), ProcessRegistry::kLive)
          << "holder lost its lease without a death event, step " << step;
      ids.push_back(h.first);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "duplicate live pid at step " << step;
  }
}

}  // namespace
}  // namespace aml::ipc
