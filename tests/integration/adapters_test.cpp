// The production-API adapters: RAII guards, TimerWheel deadlines, timed
// acquisition, and the std::mutex-compatible facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "aml/core/adapters.hpp"
#include "aml/pal/threading.hpp"

namespace aml {
namespace {

using namespace std::chrono_literals;

TEST(LockGuardTest, EntersAndExits) {
  AbortableLock lock(LockConfig{.max_threads = 2});
  {
    LockGuard guard(lock, 0);
    // Holding: a raised try from another id must abort.
    AbortSignal sig;
    sig.raise();
    EXPECT_FALSE(lock.enter(1, sig));
  }
  // Released: id 1 can acquire now.
  lock.enter(1);
  lock.exit(1);
}

TEST(TryGuardTest, OwnsReflectsOutcome) {
  AbortableLock lock(LockConfig{.max_threads = 2});
  AbortSignal free_sig;
  TryGuard ok(lock, 0, free_sig);
  EXPECT_TRUE(ok.owns());
  AbortSignal raised;
  raised.raise();
  {
    TryGuard blocked(lock, 1, raised);
    EXPECT_FALSE(blocked.owns());
  }
}

namespace {
// Poll helper: the host may be single-core and loaded, so fixed sleeps are
// flaky; wait up to a generous budget for the wheel thread to act.
bool eventually(const aml::AbortSignal& sig,
                std::chrono::milliseconds budget = 3s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (sig.raised()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return sig.raised();
}
}  // namespace

TEST(TimerWheelTest, RaisesAtDeadline) {
  TimerWheel wheel;
  AbortSignal sig;
  wheel.arm(sig, TimerWheel::Clock::now() + 20ms);
  EXPECT_TRUE(eventually(sig));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelPreventsRaise) {
  TimerWheel wheel;
  AbortSignal sig;
  const auto token = wheel.arm(sig, TimerWheel::Clock::now() + 50ms);
  wheel.cancel(token);
  std::this_thread::sleep_for(80ms);
  EXPECT_FALSE(sig.raised());
}

TEST(TimerWheelTest, OrdersMultipleDeadlines) {
  TimerWheel wheel;
  AbortSignal early, late;
  wheel.arm(late, TimerWheel::Clock::now() + 60s);  // far future
  wheel.arm(early, TimerWheel::Clock::now() + 10ms);
  EXPECT_TRUE(eventually(early));
  EXPECT_FALSE(late.raised());
  EXPECT_EQ(wheel.pending(), 1u);  // the far deadline remains armed
}

// Earliest-fires-first under load: many deadlines armed in shuffled order
// with real spacing must raise strictly in deadline order. (The old wheel
// found the earliest by scanning the token map — ordering held but each
// wakeup was O(n); this pins the behavior the deadline index must keep.)
TEST(TimerWheelTest, EarliestFiresFirstUnderLoad) {
  constexpr int kSignals = 16;
  TimerWheel wheel;
  std::deque<AbortSignal> signals(kSignals);
  // Deadline i = base + i * spacing; armed in a shuffled order so insertion
  // order and fire order disagree everywhere.
  const auto base = TimerWheel::Clock::now() + 30ms;
  const auto spacing = 15ms;
  std::vector<int> arm_order;
  for (int i = 0; i < kSignals; ++i) arm_order.push_back(i);
  std::mt19937 shuffle_rng(1234);
  std::shuffle(arm_order.begin(), arm_order.end(), shuffle_rng);
  for (const int i : arm_order) {
    wheel.arm(signals[i], base + i * spacing);
  }

  // Observe the raise order by polling with a DESCENDING scan: if signal i
  // is seen raised at its scan instant, every j < i fired before i (wheel
  // order) and is scanned after i, so it must also read raised in the same
  // sweep. A gap below the highest raised index is therefore a race-free
  // witness of out-of-order firing.
  const auto poll_deadline =
      TimerWheel::Clock::now() + 30ms + kSignals * spacing + 3s;
  for (;;) {
    int highest = -1;
    for (int i = kSignals - 1; i >= 0; --i) {
      const bool raised = signals[i].raised();
      if (raised && highest < 0) highest = i;
      if (!raised && i < highest) {
        FAIL() << "deadline " << highest << " fired before deadline " << i;
      }
    }
    if (highest == kSignals - 1) break;  // all fired, in order throughout
    ASSERT_LT(TimerWheel::Clock::now(), poll_deadline)
        << "a deadline never fired";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(wheel.pending(), 0u);
}

// Interleaved arm/cancel storm from several threads: every cancelled-early
// entry must stay unraised, every kept deadline must fire, and the wheel
// must end empty — exercising the deadline map + token index consistency.
TEST(TimerWheelTest, InterleavedArmCancelStress) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kPerThread = 64;
  TimerWheel wheel;
  std::deque<AbortSignal> kept(kThreads * kPerThread);
  std::deque<AbortSignal> cancelled(kThreads * kPerThread);

  pal::run_threads(kThreads, [&](std::uint32_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::size_t slot = t * kPerThread + i;
      // A near deadline we keep, and a far one we cancel immediately. The
      // pair lands on both sides of the wheel's current front, so cancels
      // hit front and interior entries alike.
      wheel.arm(kept[slot], TimerWheel::Clock::now() +
                                std::chrono::milliseconds(1 + (i % 7)));
      const auto token = wheel.arm(
          cancelled[slot], TimerWheel::Clock::now() + 60s + slot * 1ms);
      wheel.cancel(token);
    }
  });

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (std::size_t s = 0; s < kept.size(); ++s) {
    while (!kept[s].raised() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(kept[s].raised()) << "kept deadline " << s << " never fired";
  }
  for (std::size_t s = 0; s < cancelled.size(); ++s) {
    EXPECT_FALSE(cancelled[s].raised()) << "cancelled entry " << s << " fired";
  }
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimedLockTest, SucceedsWhenFree) {
  TimedAbortableLock lock(LockConfig{.max_threads = 2});
  EXPECT_TRUE(lock.try_enter_for(0, 10ms));
  lock.exit(0);
}

TEST(TimedLockTest, TimesOutWhenHeld) {
  TimedAbortableLock lock(LockConfig{.max_threads = 2});
  lock.enter(0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(lock.try_enter_for(1, 15ms));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 14ms);
  EXPECT_LT(elapsed, 2s);
  lock.exit(0);
  EXPECT_TRUE(lock.try_enter_for(1, 15ms));
  lock.exit(1);
}

TEST(TimedLockTest, ContendedTimedAttempts) {
  constexpr std::uint32_t kThreads = 4;
  TimedAbortableLock lock(LockConfig{.max_threads = kThreads});
  std::atomic<int> in_cs{0};
  std::atomic<bool> violation{false};
  std::atomic<std::uint64_t> wins{0}, timeouts{0};
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    for (int i = 0; i < 50; ++i) {
      if (lock.try_enter_for(t, 500us)) {
        if (in_cs.fetch_add(1) != 0) violation.store(true);
        in_cs.fetch_sub(1);
        lock.exit(t);
        wins.fetch_add(1);
      } else {
        timeouts.fetch_add(1);
      }
    }
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(wins.load() + timeouts.load(), kThreads * 50u);
  EXPECT_GT(wins.load(), 0u);
}

TEST(StdAbortableMutexTest, WorksWithStdGuards) {
  StdAbortableMutex mutex(4);
  std::uint64_t counter = 0;
  pal::run_threads(4, [&](std::uint32_t) {
    for (int i = 0; i < 200; ++i) {
      std::lock_guard<StdAbortableMutex> guard(mutex);
      ++counter;
    }
  });
  EXPECT_EQ(counter, 800u);
}

TEST(StdAbortableMutexTest, TryLockSemantics) {
  StdAbortableMutex mutex(4);  // three distinct threads touch this mutex
  EXPECT_TRUE(mutex.try_lock());
  std::thread other([&] {
    // Held by the main thread: a try from another thread must fail fast.
    EXPECT_FALSE(mutex.try_lock());
  });
  other.join();
  mutex.unlock();
  std::thread third([&] {
    EXPECT_TRUE(mutex.try_lock());
    mutex.unlock();
  });
  third.join();
}

TEST(StdAbortableMutexTest, UniqueLockAdoptAndRelease) {
  StdAbortableMutex mutex(2);
  std::unique_lock<StdAbortableMutex> ul(mutex, std::defer_lock);
  EXPECT_FALSE(ul.owns_lock());
  ul.lock();
  EXPECT_TRUE(ul.owns_lock());
  ul.unlock();
  EXPECT_TRUE(ul.try_lock());
}

// A mutex rebuilt at the address of an earlier one must not hand a thread
// an id remembered from the old mutex: the main thread used the first
// mutex, then it and a fresh thread contend on the rebuilt one.
TEST(StdAbortableMutexNative, RebuiltMutexNeverSharesAnIdBetweenLiveThreads) {
  std::optional<StdAbortableMutex> mutex;
  mutex.emplace(4);
  mutex->lock();
  mutex->unlock();
  mutex.emplace(4);

  std::atomic<int> ready{0}, inside{0};
  std::atomic<bool> overlap{false};
  auto contend = [&] {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < 20000; ++i) {
      std::lock_guard<StdAbortableMutex> guard(*mutex);
      if (inside.fetch_add(1) != 0) overlap.store(true);
      inside.fetch_sub(1);
    }
  };
  std::thread fresh(contend);
  contend();
  fresh.join();
  EXPECT_FALSE(overlap.load());
}

// Ids are leased per acquisition, so max_threads bounds the threads using
// the mutex at once, not the threads that ever touch it.
TEST(StdAbortableMutexNative, MoreThreadsOverTimeThanMaxThreads) {
  StdAbortableMutex mutex(2);
  std::uint64_t counter = 0;
  for (int round = 0; round < 5; ++round) {
    pal::run_threads(2, [&](std::uint32_t) {
      for (int i = 0; i < 50; ++i) {
        std::lock_guard<StdAbortableMutex> guard(mutex);
        ++counter;
      }
    });
  }
  EXPECT_EQ(counter, 500u);  // ten distinct threads through a 2-id mutex
}

}  // namespace
}  // namespace aml
