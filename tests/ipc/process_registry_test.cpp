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
#include "shm_test_segment.hpp"

namespace aml::ipc {
namespace {

using model::Pid;

/// A pid above the kernel's default pid_max: kill() reports ESRCH for it,
/// which is exactly the signal dead() keys on.
constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

struct RegistryFixture {
  explicit RegistryFixture(Pid nprocs) {
    std::string error;
    arena = shm_test::create_unlinked<ShmArena>("reg", 1 << 16, 0, &error);
    AML_ASSERT(arena != nullptr, "fixture arena create failed");
    registry = std::make_unique<ProcessRegistry>(*arena, nprocs);
  }

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
/// + recovery / stale-release / zombie-retirement operations and checks
/// after every step that no dense pid has two believed-live holders and that
/// every retired pid stays retired. The model mirrors what real processes
/// know: a holder keeps (id, token) until it releases, or until a death
/// simulation moves it to the stale set (whose late releases must no-op).
/// Retirements are capped at kProcs - 2 so that the later steps still lease
/// and recover around the parked zombies.
TEST(ShmIpcRegistryProperty, ReclaimAfterOwnerDeathNeverDuplicatesLiveIds) {
  constexpr Pid kProcs = 4;
  constexpr std::size_t kMaxZombies = kProcs - 2;
  RegistryFixture f(kProcs);
  ProcessRegistry& reg = *f.registry;

  std::vector<std::pair<Pid, std::uint64_t>> live;   // believed-live leases
  std::vector<std::pair<Pid, std::uint64_t>> stale;  // recovered under us
  std::vector<Pid> zombies;                          // retired for good
  int leases_after_cap = 0;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };

  for (int step = 0; step < 4000; ++step) {
    switch (next(5)) {
      case 0: {  // lease
        std::uint64_t token = 0;
        const Pid id = reg.try_lease(&token);
        if (id < kProcs) {
          // A fresh lease must never alias a believed-live holder, nor a
          // retired zombie pid.
          for (const auto& h : live) ASSERT_NE(h.first, id) << "step " << step;
          for (const Pid z : zombies) ASSERT_NE(z, id) << "step " << step;
          live.emplace_back(id, token);
          if (zombies.size() == kMaxZombies) ++leases_after_cap;
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
        const ProcessRegistry::State was = reg.state(id);
        reg.release(id, stale[k].second);
        // A successor's lease (if any) and a retirement survive the stale
        // release.
        EXPECT_EQ(reg.state(id), was)
            << "stale release changed the slot's state at step " << step;
        stale.erase(stale.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 4: {  // simulated death in the journal-blind window: retirement
        if (live.empty() || zombies.size() == kMaxZombies) break;
        const std::size_t k = next(live.size());
        const Pid id = live[k].first;
        reg.debug_set_os_pid(id, kForgedDeadPid);
        ASSERT_TRUE(reg.try_claim_recovery(id));
        reg.finish_recovery(id, /*zombie=*/true);
        zombies.push_back(id);
        stale.push_back(live[k]);  // its late release must still no-op
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
    }

    // Global invariants: every believed-live holder's slot is kLive, no two
    // holders share an id, and every retired pid is still a zombie that no
    // holder has leased.
    std::vector<Pid> ids;
    for (const auto& h : live) {
      EXPECT_EQ(reg.state(h.first), ProcessRegistry::kLive)
          << "holder lost its lease without a death event, step " << step;
      ids.push_back(h.first);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "duplicate live pid at step " << step;
    for (const Pid z : zombies) {
      EXPECT_EQ(reg.state(z), ProcessRegistry::kZombie)
          << "retired pid " << z << " left kZombie at step " << step;
      EXPECT_FALSE(std::binary_search(ids.begin(), ids.end(), z))
          << "retired pid " << z << " leased at step " << step;
    }
  }
  // The cap is reached and the pids left over keep leasing after it.
  EXPECT_EQ(zombies.size(), kMaxZombies);
  EXPECT_GT(leases_after_cap, 0);
}

}  // namespace
}  // namespace aml::ipc
