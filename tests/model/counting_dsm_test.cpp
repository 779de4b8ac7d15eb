// Checks the DSM RMR accounting rules: locality is permanent, every remote
// access is an RMR, local accesses are free, and remote busy-waiting is
// flagged via remote_spin_episodes.
#include "aml/model/counting_dsm.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace aml::model {
namespace {

TEST(CountingDsm, LocalAccessesAreFree) {
  CountingDsmModel m(2);
  auto* w = m.alloc_owned(0, 1, 3);
  m.read(0, *w);
  m.write(0, *w, 4);
  m.faa(0, *w, 1);
  EXPECT_EQ(m.counters(0).rmrs, 0u);
  EXPECT_EQ(m.counters(0).local_reads, 1u);
}

TEST(CountingDsm, RemoteAccessesAreRmrs) {
  CountingDsmModel m(2);
  auto* w = m.alloc_owned(0, 1, 3);
  m.read(1, *w);
  m.read(1, *w);  // no caching in DSM: every remote read pays
  m.write(1, *w, 9);
  EXPECT_EQ(m.counters(1).rmrs, 3u);
}

TEST(CountingDsm, UnownedWordsRemoteToAll) {
  CountingDsmModel m(2);
  auto* w = m.alloc(1, 0);
  m.read(0, *w);
  m.read(1, *w);
  EXPECT_EQ(m.counters(0).rmrs, 1u);
  EXPECT_EQ(m.counters(1).rmrs, 1u);
}

TEST(CountingDsm, LocalWaitHasNoEpisode) {
  CountingDsmModel m(2);
  auto* w = m.alloc_owned(0, 1, 1);
  auto out = m.wait(
      0, *w, [](std::uint64_t v) { return v == 1; }, nullptr);
  EXPECT_FALSE(out.stopped);
  EXPECT_EQ(m.counters(0).remote_spin_episodes, 0u);
  EXPECT_EQ(m.counters(0).rmrs, 0u);
}

TEST(CountingDsm, RemoteWaitCountsEpisode) {
  CountingDsmModel m(2);
  auto* w = m.alloc_owned(0, 1, 0);
  std::thread waiter([&] {
    auto out = m.wait(
        1, *w, [](std::uint64_t v) { return v != 0; }, nullptr);
    EXPECT_EQ(out.value, 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  m.write(0, *w, 1);
  waiter.join();
  EXPECT_EQ(m.counters(1).remote_spin_episodes, 1u);
  EXPECT_GE(m.counters(1).rmrs, 2u);  // initial read + wake re-read
}

TEST(CountingDsm, CasAndSwapChargeByLocality) {
  CountingDsmModel m(2);
  auto* w = m.alloc_owned(1, 1, 0);
  EXPECT_TRUE(m.cas(1, *w, 0, 5));
  EXPECT_EQ(m.swap(1, *w, 6), 5u);
  EXPECT_EQ(m.counters(1).rmrs, 0u);  // owner: free
  EXPECT_FALSE(m.cas(0, *w, 0, 7));
  EXPECT_EQ(m.swap(0, *w, 8), 6u);
  EXPECT_EQ(m.counters(0).rmrs, 2u);  // remote: charged
}

TEST(CountingDsm, LargeAllocationsAreContiguous) {
  CountingDsmModel m(2);
  auto* words = m.alloc_owned(1, 300, 9);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(m.read(1, words[i]), 9u);
    m.write(1, words[i], static_cast<std::uint64_t>(i));
  }
  ASSERT_EQ(m.read(1, words[299]), 299u);
  EXPECT_EQ(m.counters(1).rmrs, 0u);  // all owner-local
}

TEST(CountingDsm, WaitEitherChargesEpisodePerRemoteWord) {
  CountingDsmModel m(3);
  auto* remote = m.alloc_owned(1, 1, 0);
  auto* other = m.alloc_owned(1, 1, 5);
  auto* local = m.alloc_owned(0, 1, 0);
  // First round on two remote words: one episode per remote word read.
  auto done = m.wait_either(
      2, *remote, [](std::uint64_t v) { return v != 0; }, *other,
      [](std::uint64_t v) { return v == 5; }, nullptr);
  EXPECT_EQ(done.value2, 5u);
  EXPECT_EQ(m.counters(2).remote_spin_episodes, 2u);
  EXPECT_EQ(m.counters(2).rmrs, 2u);
  // A remote and a local word, woken once: the local word opens no
  // episode, and the second round opens none either.
  std::thread waiter([&] {
    auto out = m.wait_either(
        0, *remote, [](std::uint64_t v) { return v != 0; }, *local,
        [](std::uint64_t v) { return v != 0; }, nullptr);
    EXPECT_EQ(out.value2, 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  m.write(1, *local, 1);
  waiter.join();
  EXPECT_EQ(m.counters(0).wait_wakeups, 1u);  // exactly two rounds
  EXPECT_EQ(m.counters(0).remote_spin_episodes, 1u);
  EXPECT_EQ(m.counters(0).rmrs, 2u);         // the remote word, each round
  EXPECT_EQ(m.counters(0).local_reads, 2u);  // the local word, each round
}

TEST(CountingDsm, WaitStopsOnSignal) {
  CountingDsmModel m(1);
  auto* w = m.alloc(1, 0);
  std::atomic<bool> stop{true};
  auto out = m.wait(
      0, *w, [](std::uint64_t v) { return v != 0; }, &stop);
  EXPECT_TRUE(out.stopped);
}

}  // namespace
}  // namespace aml::model
