// Deterministic scheduler: determinism per seed, policy control, blocking
// semantics, idle callbacks, signal-driven wakeups, and every process on the
// calling thread.
#include "aml/sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "aml/model/counting_cc.hpp"

namespace aml::sched {
namespace {

using model::CountingCcModel;
using model::Pid;

TEST(Scheduler, CountsOneStepPerOperation) {
  CountingCcModel m(4);
  auto* w = m.alloc(1, 0);
  StepScheduler sched(4, {.seed = 1});
  m.set_hook(&sched);
  auto result = sched.run([&](Pid p) { m.faa(p, *w, 1); });
  m.set_hook(nullptr);
  EXPECT_EQ(result.steps, 4u);
  EXPECT_EQ(m.peek(*w), 4u);
}

TEST(Scheduler, SameSeedSameTrace) {
  auto trace_for = [](std::uint64_t seed) {
    CountingCcModel m(5);
    auto* w = m.alloc(1, 0);
    StepScheduler::Config cfg;
    cfg.seed = seed;
    cfg.record_trace = true;
    StepScheduler sched(5, std::move(cfg));
    m.set_hook(&sched);
    auto result = sched.run([&](Pid p) {
      for (int i = 0; i < 10; ++i) m.faa(p, *w, 1);
    });
    m.set_hook(nullptr);
    return result.trace;
  };
  const auto t1 = trace_for(42);
  const auto t2 = trace_for(42);
  const auto t3 = trace_for(43);
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);
  EXPECT_EQ(t1.size(), 50u);
}

TEST(Scheduler, RoundRobinCycles) {
  CountingCcModel m(3);
  auto* w = m.alloc(1, 0);
  StepScheduler::Config cfg;
  cfg.policy = policies::round_robin();
  cfg.record_trace = true;
  StepScheduler sched(3, std::move(cfg));
  m.set_hook(&sched);
  auto result = sched.run([&](Pid p) {
    for (int i = 0; i < 3; ++i) m.faa(p, *w, 1);
  });
  m.set_hook(nullptr);
  // With everyone always runnable, round robin yields 0,1,2,0,1,2,...
  ASSERT_EQ(result.trace.size(), 9u);
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace[i], i % 3);
  }
}

TEST(Scheduler, ScriptPolicyRunsSegmentsExactly) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 0);
  StepScheduler::Config cfg;
  cfg.policy = policies::script({{1, 3}, {0, 2}}, policies::round_robin());
  cfg.record_trace = true;
  StepScheduler sched(2, std::move(cfg));
  m.set_hook(&sched);
  auto result = sched.run([&](Pid p) {
    for (int i = 0; i < 4; ++i) m.faa(p, *w, 1);
  });
  m.set_hook(nullptr);
  const std::vector<Pid> expected{1, 1, 1, 0, 0, /* fallback rr: */ 0, 1, 0};
  ASSERT_EQ(result.trace.size(), 8u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.trace[i], expected[i]) << "i=" << i;
  }
}

TEST(Scheduler, PreferPolicyStarvesOthersWhileRunnable) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 0);
  StepScheduler::Config cfg;
  cfg.policy = policies::prefer({1, 0});
  cfg.record_trace = true;
  StepScheduler sched(2, std::move(cfg));
  m.set_hook(&sched);
  auto result = sched.run([&](Pid p) {
    for (int i = 0; i < 5; ++i) m.faa(p, *w, 1);
  });
  m.set_hook(nullptr);
  // Process 1 runs all its steps first.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(result.trace[i], 1u);
  for (int i = 5; i < 10; ++i) EXPECT_EQ(result.trace[i], 0u);
}

TEST(Scheduler, ReplayPolicyReproducesTrace) {
  auto run_once = [](sched::Policy policy, bool record) {
    CountingCcModel m(3);
    auto* w = m.alloc(1, 0);
    StepScheduler::Config cfg;
    cfg.policy = std::move(policy);
    cfg.record_trace = record;
    StepScheduler sched(3, std::move(cfg));
    m.set_hook(&sched);
    std::vector<std::uint64_t> observed;
    std::mutex mu;
    auto result = sched.run([&](Pid p) {
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t v = m.faa(p, *w, 1);
        std::lock_guard<std::mutex> guard(mu);
        observed.push_back(v);
      }
    });
    m.set_hook(nullptr);
    return std::make_pair(result.trace, observed);
  };
  // Record a random run, then replay its trace: the observed F&A return
  // values (the execution's data flow) must be identical.
  auto [trace, observed1] = run_once(policies::random(), true);
  ASSERT_EQ(trace.size(), 12u);
  auto [_, observed2] =
      run_once(policies::replay(trace, policies::round_robin()), false);
  EXPECT_EQ(observed1, observed2);
}

TEST(Scheduler, BlockedProcessWakesOnWrite) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 0);
  StepScheduler sched(2, {.seed = 3});
  m.set_hook(&sched);
  std::atomic<bool> woke{false};
  sched.run([&](Pid p) {
    if (p == 0) {
      auto out = m.wait(
          0, *w, [](std::uint64_t v) { return v == 1; }, nullptr);
      EXPECT_EQ(out.value, 1u);
      woke.store(true);
    } else {
      m.write(1, *w, 1);
    }
  });
  m.set_hook(nullptr);
  EXPECT_TRUE(woke.load());
}

TEST(Scheduler, IdleCallbackUnblocksViaPoke) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 0);
  StepScheduler sched(1, {.seed = 4});
  bool idled = false;
  sched.set_idle_callback([&] {
    if (idled) return false;
    idled = true;
    m.poke(*w, 9);
    return true;
  });
  m.set_hook(&sched);
  sched.run([&](Pid p) {
    auto out = m.wait(
        p, *w, [](std::uint64_t v) { return v == 9; }, nullptr);
    EXPECT_EQ(out.value, 9u);
  });
  m.set_hook(nullptr);
  EXPECT_TRUE(idled);
}

TEST(Scheduler, StopFlagWakesBlockedProcess) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 0);
  std::atomic<bool> stop{false};
  StepScheduler sched(1, {.seed = 5});
  sched.set_idle_callback([&] {
    if (stop.load()) return false;
    stop.store(true);
    return true;
  });
  m.set_hook(&sched);
  sched.run([&](Pid p) {
    auto out = m.wait(
        p, *w, [](std::uint64_t v) { return v != 0; }, &stop);
    EXPECT_TRUE(out.stopped);
  });
  m.set_hook(nullptr);
}

TEST(Scheduler, StepCallbackSeesMonotoneSteps) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 0);
  StepScheduler sched(2, {.seed = 6});
  std::uint64_t last = 0;
  std::uint64_t calls = 0;
  sched.set_step_callback([&](std::uint64_t step) {
    EXPECT_GE(step, last);
    last = step;
    ++calls;
  });
  m.set_hook(&sched);
  sched.run([&](Pid p) {
    for (int i = 0; i < 7; ++i) m.faa(p, *w, 1);
  });
  m.set_hook(nullptr);
  EXPECT_EQ(calls, 14u);
}

TEST(Scheduler, ManyProcessesComplete) {
  constexpr Pid kN = 64;
  CountingCcModel m(kN);
  auto* w = m.alloc(1, 0);
  StepScheduler sched(kN, {.seed = 7});
  m.set_hook(&sched);
  sched.run([&](Pid p) {
    for (int i = 0; i < 5; ++i) m.faa(p, *w, 1);
  });
  m.set_hook(nullptr);
  EXPECT_EQ(m.peek(*w), kN * 5u);
}

TEST(Scheduler, BodiesRunOnTheCallingThread) {
  constexpr Pid kN = 8;
  CountingCcModel m(kN);
  auto* w = m.alloc(1, 0);
  StepScheduler sched(kN, {.seed = 8});
  // Each body writes only its own slots, so the check is race-free even
  // where bodies would run on threads of their own.
  std::vector<std::thread::id> before(kN);
  std::vector<std::thread::id> after(kN);
  m.set_hook(&sched);
  sched.run([&](Pid p) {
    before[p] = std::this_thread::get_id();
    for (int i = 0; i < 3; ++i) m.faa(p, *w, 1);
    after[p] = std::this_thread::get_id();
  });
  m.set_hook(nullptr);
  for (Pid p = 0; p < kN; ++p) {
    EXPECT_EQ(before[p], std::this_thread::get_id()) << "p" << p;
    EXPECT_EQ(after[p], std::this_thread::get_id()) << "p" << p;
  }
}

}  // namespace
}  // namespace aml::sched
