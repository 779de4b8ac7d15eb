// Checks that CountingCcModel implements the paper's CC RMR accounting
// (Section 2) rule by rule.
#include "aml/model/counting_cc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace aml::model {
namespace {

TEST(CountingCc, FirstReadIsRmrSecondIsLocal) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 5);
  EXPECT_EQ(m.read(0, *w), 5u);
  EXPECT_EQ(m.counters(0).rmrs, 1u);
  EXPECT_EQ(m.read(0, *w), 5u);
  EXPECT_EQ(m.counters(0).rmrs, 1u);  // cached
  EXPECT_EQ(m.counters(0).local_reads, 1u);
  EXPECT_EQ(m.counters(0).reads, 2u);
}

TEST(CountingCc, WriteByOtherInvalidates) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 0);
  m.read(0, *w);
  m.write(1, *w, 7);  // invalidates p0's copy
  EXPECT_EQ(m.read(0, *w), 7u);
  EXPECT_EQ(m.counters(0).rmrs, 2u);  // both reads were RMRs
}

TEST(CountingCc, OwnWriteKeepsOwnCacheValid) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 0);
  m.write(0, *w, 3);  // 1 RMR; line now modified in p0's cache
  EXPECT_EQ(m.read(0, *w), 3u);
  EXPECT_EQ(m.counters(0).rmrs, 1u);
  EXPECT_EQ(m.counters(0).local_reads, 1u);
}

TEST(CountingCc, EveryMutationIsOneRmr) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 0);
  m.write(0, *w, 1);
  m.faa(0, *w, 2);
  m.cas(0, *w, 3, 4);
  m.swap(0, *w, 9);
  EXPECT_EQ(m.counters(0).rmrs, 4u);
  EXPECT_EQ(m.counters(0).writes, 1u);
  EXPECT_EQ(m.counters(0).faas, 1u);
  EXPECT_EQ(m.counters(0).cas_attempts, 1u);
  EXPECT_EQ(m.counters(0).swaps, 1u);
}

TEST(CountingCc, FaaReturnsOldValue) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 10);
  EXPECT_EQ(m.faa(0, *w, 5), 10u);
  EXPECT_EQ(m.faa(0, *w, 5), 15u);
  EXPECT_EQ(m.read(0, *w), 20u);
}

TEST(CountingCc, CasSemantics) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 1);
  EXPECT_FALSE(m.cas(0, *w, 2, 9));
  EXPECT_EQ(m.counters(0).cas_failures, 1u);
  EXPECT_EQ(m.peek(*w), 1u);
  EXPECT_TRUE(m.cas(0, *w, 1, 9));
  EXPECT_EQ(m.peek(*w), 9u);
}

TEST(CountingCc, FailedCasStillInvalidatesReaders) {
  // Per the model text: "another process performed a write, CAS, or F&A" —
  // success is not required for invalidation.
  CountingCcModel m(2);
  auto* w = m.alloc(1, 1);
  m.read(0, *w);
  EXPECT_FALSE(m.cas(1, *w, 42, 43));
  m.read(0, *w);
  EXPECT_EQ(m.counters(0).rmrs, 2u);
}

TEST(CountingCc, WaitImmediateWhenPredHolds) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 4);
  auto out = m.wait(
      0, *w, [](std::uint64_t v) { return v == 4; }, nullptr);
  EXPECT_FALSE(out.stopped);
  EXPECT_EQ(out.value, 4u);
  EXPECT_EQ(m.counters(0).rmrs, 1u);
}

TEST(CountingCc, WaitStopsOnSignal) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 0);
  std::atomic<bool> stop{true};
  auto out = m.wait(
      0, *w, [](std::uint64_t v) { return v != 0; }, &stop);
  EXPECT_TRUE(out.stopped);
  EXPECT_EQ(out.value, 0u);
}

TEST(CountingCc, WaitWakesOnWriteFreeRunning) {
  CountingCcModel m(2);
  auto* w = m.alloc(1, 0);
  // The writer starts only after the waiter's first (charged) read, so the
  // waiter cannot read 2 at once and leave with a single RMR.
  std::atomic<bool> first_read{false};
  std::thread waiter([&] {
    auto out = m.wait(
        0, *w,
        [&](std::uint64_t v) {
          first_read.store(true, std::memory_order_release);
          return v == 2;
        },
        nullptr);
    EXPECT_FALSE(out.stopped);
    EXPECT_EQ(out.value, 2u);
  });
  std::thread writer([&] {
    while (!first_read.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    m.write(1, *w, 1);
    m.write(1, *w, 2);
  });
  waiter.join();
  writer.join();
  // The waiter paid 1 RMR for its first read plus 1 per invalidation-driven
  // re-read; with two writes that is at most 3 and at least 2.
  EXPECT_GE(m.counters(0).rmrs, 2u);
  EXPECT_LE(m.counters(0).rmrs, 3u);
}

TEST(CountingCc, PokeWakesWaitersWithoutAccounting) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 0);
  std::thread waiter([&] {
    auto out = m.wait(
        0, *w, [](std::uint64_t v) { return v != 0; }, nullptr);
    EXPECT_EQ(out.value, 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  m.poke(*w, 1);
  waiter.join();
  // Only the waiting process accrued operations.
  EXPECT_EQ(m.total_counters().writes, 0u);
}

TEST(CountingCc, ResetCountersKeepsCaches) {
  CountingCcModel m(1);
  auto* w = m.alloc(1, 0);
  m.read(0, *w);
  m.reset_counters();
  EXPECT_EQ(m.counters(0).rmrs, 0u);
  m.read(0, *w);  // still cached: local
  EXPECT_EQ(m.counters(0).rmrs, 0u);
  EXPECT_EQ(m.counters(0).local_reads, 1u);
}

TEST(CountingCc, LargeAllocationsAreContiguousAndUsable) {
  // Regression: alloc(n) must return a genuinely contiguous block (an early
  // version
  // returned interior deque pointers, which went off the rails past one
  // deque block).
  CountingCcModel m(1);
  auto* words = m.alloc(1000, 7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(m.read(0, words[i]), 7u) << i;
    m.write(0, words[i], static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(m.read(0, words[i]), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(m.words_allocated(), 1000u);
}

TEST(CountingCc, WordsAllocated) {
  CountingCcModel m(1);
  EXPECT_EQ(m.words_allocated(), 0u);
  m.alloc(3, 0);
  m.alloc(2, 1);
  EXPECT_EQ(m.words_allocated(), 5u);
  // Signals share the id space with words but are not words.
  m.alloc_signal();
  EXPECT_EQ(m.words_allocated(), 5u);
}

TEST(CountingCc, TotalCountersAggregates) {
  CountingCcModel m(3);
  auto* w = m.alloc(1, 0);
  m.write(0, *w, 1);
  m.write(1, *w, 2);
  m.read(2, *w);
  EXPECT_EQ(m.total_counters().rmrs, 3u);
}

}  // namespace
}  // namespace aml::model
