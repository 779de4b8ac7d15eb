// The audit component itself, then end-to-end audits of the one-shot and
// long-lived locks' own event streams: each lock is instantiated with the
// obs::Metrics sink, and the auditor reads the sink's merged per-pid rings,
// so the doorway it checks is the one the lock recorded after its tail F&A.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/harness/audit.hpp"
#include "aml/harness/workload.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/rng.hpp"
#include "aml/sched/scheduler.hpp"

namespace aml::harness {
namespace {

using model::CountingCcModel;
using model::Pid;
using obs::Metrics;

// The synthetic histories drive a sink's hooks by hand, standing in for a
// lock: on_enter is the doorway, on_granted/on_exit bracket the critical
// section, on_abort resolves an attempt.

TEST(AuditUnit, CleanHistory) {
  Metrics log(2, 64);
  log.on_enter(0, 0);
  log.on_enter(1, 1);
  log.on_granted(0, 0);
  log.on_exit(0, 0);
  log.on_granted(1, 1);
  log.on_exit(1, 1);
  const AuditReport r = audit_one_shot(log.ring_snapshot());
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_EQ(r.acquires, 2u);
  EXPECT_EQ(r.doorways, 2u);
}

TEST(AuditUnit, DetectsOverlap) {
  Metrics log(2, 64);
  log.on_granted(0, 0);
  log.on_granted(1, 1);  // overlap!
  log.on_exit(0, 0);
  log.on_exit(1, 1);
  EXPECT_FALSE(audit_one_shot(log.ring_snapshot()).mutex_ok);
}

TEST(AuditUnit, DetectsFcfsInversion) {
  Metrics log(2, 64);
  log.on_granted(1, 5);
  log.on_exit(1, 5);
  log.on_granted(0, 2);  // lower slot after higher
  log.on_exit(0, 2);
  const AuditReport r = audit_one_shot(log.ring_snapshot());
  EXPECT_TRUE(r.mutex_ok);
  EXPECT_EQ(r.fcfs_inversions, 1u);
}

TEST(AuditUnit, DetectsLeakedAcquire) {
  Metrics log(1, 64);
  log.on_granted(0, 0);
  EXPECT_FALSE(audit_one_shot(log.ring_snapshot()).conservation_ok);
}

TEST(AuditUnit, DetectsForeignRelease) {
  Metrics log(2, 64);
  log.on_granted(0, 0);
  log.on_exit(1, 0);  // not the holder
  EXPECT_FALSE(audit_one_shot(log.ring_snapshot()).conservation_ok);
}

TEST(AuditUnit, DetectsStarvedAttempt) {
  Metrics log(2, 64);
  log.on_enter(0, 0);
  log.on_enter(1, 1);  // p1 never acquires nor aborts
  log.on_granted(0, 0);
  log.on_exit(0, 0);
  const AuditReport r = audit_one_shot(log.ring_snapshot());
  EXPECT_FALSE(r.starvation_ok) << r.to_string();
  EXPECT_EQ(r.unresolved_attempts, 1u);
  EXPECT_FALSE(r.clean());
  // Resolving the attempt (even by abort) clears the finding.
  log.on_abort(1, 1);
  const AuditReport resolved = audit_one_shot(log.ring_snapshot());
  EXPECT_TRUE(resolved.starvation_ok) << resolved.to_string();
  EXPECT_EQ(resolved.unresolved_attempts, 0u);
}

TEST(AuditUnit, AbortBeforeDoorwayIsNotStarvation) {
  // A long-lived attempt may abort on the spin-node wait, before joining an
  // instance (no doorway event). The balance goes negative, not positive.
  Metrics log(1, 64);
  log.on_abort(0, obs::kNoSlot);
  const AuditReport r = audit_long_lived(log.ring_snapshot());
  EXPECT_TRUE(r.starvation_ok) << r.to_string();
}

TEST(AuditUnit, DoubleAcquireOnlyFlaggedForOneShot) {
  Metrics log(1, 64);
  for (int round = 0; round < 2; ++round) {
    log.on_granted(0, 0);
    log.on_exit(0, 0);
  }
  EXPECT_FALSE(audit_one_shot(log.ring_snapshot()).conservation_ok);
  EXPECT_TRUE(audit_long_lived(log.ring_snapshot()).conservation_ok);
}

/// The sink's stream, checked complete: nothing torn, nothing wrapped away.
std::vector<obs::Event> whole_stream(const Metrics& sink) {
  std::uint64_t torn = ~std::uint64_t{0};
  std::vector<obs::Event> events = sink.ring_snapshot(&torn);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(sink.ring_dropped(), 0u);
  return events;
}

// End-to-end: audited one-shot runs across seeds and abort patterns.
TEST(AuditedExecution, OneShotHistoriesAreClean) {
  constexpr Pid kN = 24;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CountingCcModel m(kN);
    core::OneShotLock<CountingCcModel, Metrics> lock(m, kN, 4);
    Metrics sink(kN, /*ring_capacity=*/4 * kN);
    lock.set_metrics(&sink);
    const auto plans = plan_random_k(kN, 10, seed, AbortWhen::kOnIdle);
    std::deque<std::atomic<bool>> signals(kN);
    // Hold the first critical section behind a gate so the planned aborts
    // all happen while waiting (same device as the harness driver).
    auto* gate = m.alloc(1, 0);

    sched::StepScheduler sched(kN, {.seed = seed});
    std::size_t cursor = 0;
    bool gate_open = false;
    sched.set_idle_callback([&]() {
      while (cursor < kN) {
        const Pid p = static_cast<Pid>(cursor++);
        if (plans[p].when == AbortWhen::kOnIdle) {
          signals[p].store(true, std::memory_order_release);
          return true;
        }
      }
      if (!gate_open) {
        gate_open = true;
        m.poke(*gate, 1);
        return true;
      }
      return false;
    });
    m.set_hook(&sched);
    sched.run([&](Pid p) {
      if (lock.enter(p, &signals[p]).acquired) {
        m.wait(
            p, *gate, [](std::uint64_t v) { return v != 0; }, nullptr);
        lock.exit(p);
      }
    });
    m.set_hook(nullptr);

    const AuditReport report = audit_one_shot(whole_stream(sink));
    EXPECT_TRUE(report.clean()) << "seed " << seed << ": "
                                << report.to_string();
    // Without an ordered doorway a marked process may draw slot 0 and
    // acquire before its signal is raised; everyone else marked aborts.
    EXPECT_GE(report.aborts, 9u);
    EXPECT_LE(report.aborts, 10u);
    EXPECT_EQ(report.acquires + report.aborts, 24u);
    EXPECT_EQ(report.doorways, 24u);
  }
}

TEST(AuditedExecution, LongLivedHistoriesConserve) {
  constexpr Pid kN = 6;
  CountingCcModel m(kN);
  core::LongLivedLock<CountingCcModel, core::VersionedSpace, core::OneShotLock,
                      Metrics>
      lock(m, {.nprocs = kN, .w = 4});
  // Per passage: enter, granted, exit, and at most one switch.
  Metrics sink(kN, /*ring_capacity=*/4 * 5 * kN);
  lock.set_metrics(&sink);
  sched::StepScheduler sched(kN, {.seed = 9});
  m.set_hook(&sched);
  sched.run([&](Pid p) {
    for (int round = 0; round < 5; ++round) {
      if (lock.enter(p, nullptr).acquired) lock.exit(p);
    }
  });
  m.set_hook(nullptr);
  const AuditReport report = audit_long_lived(whole_stream(sink));
  EXPECT_TRUE(report.mutex_ok) << report.to_string();
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_TRUE(report.starvation_ok) << report.to_string();
  EXPECT_EQ(report.unresolved_attempts, 0u);
  EXPECT_EQ(report.acquires, kN * 5u);
  EXPECT_EQ(report.doorways, kN * 5u);
}

// Native threads: the observed facade's own stream, written concurrently
// into the per-pid rings, audits clean. One attempt in ten is made with its
// abort signal already raised, so it aborts unless it is granted without
// waiting; either way it must resolve.
TEST(AuditedExecution, NativeObservedLockStreamAudits) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kRounds = 400;
  ObservedAbortableLock lock(LockConfig{.max_threads = kThreads,
                                        .tree_width = 4});
  Metrics sink(kThreads, /*ring_capacity=*/4 * kRounds * kThreads);
  lock.set_metrics(&sink);
  std::deque<AbortSignal> signals(kThreads);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pal::Xoshiro256 rng(t * 977 + 5);
      for (int r = 0; r < kRounds; ++r) {
        if (rng.below(10) == 0) {
          signals[t].raise();
        } else {
          signals[t].reset();
        }
        if (lock.enter(t, signals[t])) lock.exit(t);
      }
    });
  }
  for (auto& th : threads) th.join();

  const AuditReport report = audit_long_lived(whole_stream(sink));
  EXPECT_TRUE(report.mutex_ok) << report.to_string();
  EXPECT_TRUE(report.conservation_ok) << report.to_string();
  EXPECT_TRUE(report.starvation_ok) << report.to_string();
  EXPECT_EQ(report.acquires + report.aborts, kThreads * kRounds);
  EXPECT_EQ(report.acquires, sink.totals().acquisitions);
}

}  // namespace
}  // namespace aml::harness
