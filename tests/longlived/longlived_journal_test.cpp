// The journal protocol of core::LongLivedLock: the order in which one
// passage reports its phases to the Journal policy. ipc::ShmJournal persists
// exactly these calls, and ShmStripeLockT's recovery arms read them back, so
// the order is pinned here at the shared skeleton with a journal that only
// records.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "aml/core/longlived.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/sched/scheduler.hpp"

namespace aml::core {
namespace {

using model::CountingCcModel;

/// NullJournal plus a per-pid log of every phase hook.
struct RecordingJournal : NullJournal {
  template <typename M>
  RecordingJournal(M& mem, Pid nprocs) : NullJournal(mem, nprocs), log(nprocs) {}

  void phase(Pid p, Phase ph) { log[p].push_back(ph); }

  std::vector<std::vector<Phase>> log;
};

using RecordedLock = LongLivedLock<CountingCcModel, VersionedSpace,
                                   OneShotLock, obs::NullMetrics,
                                   RecordingJournal>;

// p0 takes the lock and parks in its critical section. p1, signal already
// raised, then makes two attempts: the first joins the installed instance
// and aborts in its doorway; the second finds that instance still
// installed and aborts in the spin-node wait. Then p0 releases.
TEST(LongLivedJournal, PhaseOrderOfGrantAndBothAborts) {
  CountingCcModel m(2);
  RecordedLock lock(m, {.nprocs = 2, .w = 4});
  auto* released = m.alloc(1, 0);
  std::atomic<bool> raised{true};
  std::vector<EnterResult> p1_results;

  sched::StepScheduler::Config cfg;
  cfg.policy = sched::policies::prefer({0, 1});
  sched::StepScheduler scheduler(2, std::move(cfg));
  m.set_hook(&scheduler);
  scheduler.run([&](Pid p) {
    if (p == 0) {
      ASSERT_TRUE(lock.enter(0, nullptr).acquired);
      m.wait(0, *released, [](std::uint64_t v) { return v != 0; }, nullptr);
      lock.exit(0);
      return;
    }
    p1_results.push_back(lock.enter(1, &raised));
    p1_results.push_back(lock.enter(1, &raised));
    m.write(1, *released, 1);
  });
  m.set_hook(nullptr);

  const std::vector<Phase> granted = {kSpinWait, kPreJoin,   kJoined,
                                      kDoorway,  kHolding,   kReleasing,
                                      kCleanup,  kIdle};
  EXPECT_EQ(lock.journal().log[0], granted);

  const std::vector<Phase> aborts = {
      // abort in the doorway
      kSpinWait, kPreJoin, kJoined, kDoorway, kCleanup, kIdle,
      // abort in the spin-node wait
      kSpinWait, kIdle};
  EXPECT_EQ(lock.journal().log[1], aborts);

  ASSERT_EQ(p1_results.size(), 2u);
  EXPECT_FALSE(p1_results[0].acquired);
  EXPECT_NE(p1_results[0].slot, kNoSlot);
  EXPECT_FALSE(p1_results[1].acquired);
  EXPECT_EQ(p1_results[1].slot, kNoSlot);
  EXPECT_EQ(lock.peek_refcnt(0), 0u);
  EXPECT_EQ(lock.total_switches(), 1u);
}

}  // namespace
}  // namespace aml::core
