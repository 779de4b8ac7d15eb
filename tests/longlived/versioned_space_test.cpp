// VersionedSpace: the Section 6.2 lazy-reset scheme — per-word version
// words, incarnation flipping, CAS races between same-session resolvers, and
// wraparound defeat via the eager-reset quota.
#include "aml/core/versioned_space.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <type_traits>

#include <unistd.h>

#include "aml/core/eager_space.hpp"
#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/model/native.hpp"
#include "aml/pal/cache.hpp"
#include "aml/sched/scheduler.hpp"

namespace aml::core {
namespace {

using model::CountingCcModel;
using model::Pid;
using Space = VersionedSpace<CountingCcModel>;

TEST(VersionedSpace, ReadsInitialValue) {
  CountingCcModel m(1);
  Space space(m, 1, 8);
  auto* w = space.alloc(1, 42);
  space.begin_session(0);
  EXPECT_EQ(space.read(0, *w), 42u);
}

TEST(VersionedSpace, WriteReadFaaWithinSession) {
  CountingCcModel m(1);
  Space space(m, 1, 8);
  auto* w = space.alloc(1, 10);
  space.begin_session(0);
  EXPECT_EQ(space.faa(0, *w, 5), 10u);
  EXPECT_EQ(space.read(0, *w), 15u);
  space.write(0, *w, 99);
  EXPECT_EQ(space.read(0, *w), 99u);
}

TEST(VersionedSpace, NextIncarnationLazilyResets) {
  CountingCcModel m(1);
  Space space(m, 1, 8);
  auto* words = space.alloc(4, 7);
  space.begin_session(0);
  for (int i = 0; i < 4; ++i) space.write(0, words[i], 100 + i);
  space.next_incarnation(0);
  space.begin_session(0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(space.read(0, words[i]), 7u) << "word " << i;
  }
}

TEST(VersionedSpace, ManyIncarnationsAlwaysFresh) {
  // W=4 -> 3 version bits -> versions wrap every 8 reuses. 50 incarnations
  // cross the wrap repeatedly; the eager-reset quota must keep stale values
  // from ever surviving a full wrap.
  CountingCcModel m(1);
  Space space(m, 1, 4);
  auto* words = space.alloc(10, 3);
  for (int round = 0; round < 50; ++round) {
    space.begin_session(0);
    for (int i = 0; i < 10; ++i) {
      ASSERT_EQ(space.read(0, words[i]), 3u)
          << "round " << round << " word " << i;
      space.write(0, words[i], 1000 + round);
    }
    space.next_incarnation(0);
  }
  EXPECT_EQ(space.incarnations(), 50u);
}

TEST(VersionedSpace, WraparoundWithUntouchedWords) {
  // Words never touched in most sessions must still read fresh after the
  // version counter wraps (the dedicated job of the eager-reset cursor).
  CountingCcModel m(1);
  Space space(m, 1, 3);  // 2 version bits: wrap every 4
  auto* words = space.alloc(6, 11);
  space.begin_session(0);
  for (int i = 0; i < 6; ++i) space.write(0, words[i], 77);
  // 4 reuses without touching anything: exactly one full wrap.
  for (int k = 0; k < 4; ++k) space.next_incarnation(0);
  space.begin_session(0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(space.read(0, words[i]), 11u) << "word " << i;
  }
}

TEST(VersionedSpace, PerSessionResolutionIsCachedLocally) {
  CountingCcModel m(1);
  Space space(m, 1, 8);
  auto* w = space.alloc(1, 0);
  space.begin_session(0);
  space.read(0, *w);
  const std::uint64_t reads_after_first = m.counters(0).reads;
  space.read(0, *w);
  // Second access resolves locally: exactly one more underlying read.
  EXPECT_EQ(m.counters(0).reads, reads_after_first + 1);
}

TEST(VersionedSpace, TwoProcessesShareIncarnation) {
  CountingCcModel m(2);
  Space space(m, 2, 8);
  auto* w = space.alloc(1, 5);
  space.next_incarnation(0);  // leave version-0 state behind
  space.begin_session(0);
  space.begin_session(1);
  space.write(0, *w, 123);
  EXPECT_EQ(space.read(1, *w), 123u);  // same incarnation resolved
}

TEST(VersionedSpace, RacingResolversAgree) {
  // Force the CAS race in resolve(): both processes read the stale V_w,
  // p1 switches first, p0's CAS fails and re-reads. Both must end up on the
  // same (fresh) incarnation.
  CountingCcModel m(2);
  Space space(m, 2, 8);
  // Two words: the eager-reset cursor consumes word 0 at next_incarnation,
  // leaving word 1's V_w genuinely stale for the race.
  auto* words = space.alloc(2, 17);
  auto* w = &words[1];
  space.begin_session(0);
  space.write(0, *w, 55);    // dirty version 0
  space.next_incarnation(0); // now version 1; V_w stale
  space.begin_session(0);
  space.begin_session(1);

  sched::StepScheduler::Config cfg;
  // p0 reads V_w (1 step); p1 then runs its entire resolve + read (4 steps:
  // V read, CAS, reset write, value read); p0 resumes (CAS fail, V re-read,
  // value read).
  cfg.policy = sched::policies::script(
      {{0, 1}, {1, 4}, {0, 3}}, sched::policies::round_robin());
  sched::StepScheduler sched(2, std::move(cfg));
  m.set_hook(&sched);
  std::uint64_t seen[2] = {0, 0};
  sched.run([&](Pid p) { seen[p] = space.read(p, *w); });
  m.set_hook(nullptr);
  EXPECT_EQ(seen[0], 17u);
  EXPECT_EQ(seen[1], 17u);
  // And writes through either process land on the shared incarnation.
  space.write(0, *w, 200);
  EXPECT_EQ(space.read(1, *w), 200u);
}

TEST(VersionedSpace, LargeHandleBlocksAreContiguous) {
  CountingCcModel m(1);
  Space space(m, 1, 8);
  auto* words = space.alloc(300, 4);
  space.begin_session(0);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(space.read(0, words[i]), 4u) << i;
    space.write(0, words[i], static_cast<std::uint64_t>(i));
  }
  ASSERT_EQ(space.read(0, words[299]), 299u);
}

// Placement of the backing words. On the heap NativeModel and, since shm
// layout 7, in a ShmSpace arena, a record's V_w, w_0 and w_1 share one cache
// line that no other record touches; the word count is what it was with
// three padded words. The lock counts are those of a 3-process, W=8
// LongLivedLock.
TEST(VersionedSpace, RecordsShareOneLineOnHeapAndInTheArena) {
  constexpr std::size_t kLockWords = 104;
  constexpr model::Pid kProcs = 3;
  constexpr std::uint32_t kW = 8;
  const auto line_of = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / pal::kCacheLine;
  };
  // Seven records over `mem`, each on a line of its own.
  const auto check_records = [&](auto& mem) {
    VersionedSpace<std::remove_reference_t<decltype(mem)>> space(mem, 2, kW);
    const std::size_t before = mem.words_allocated();
    space.alloc(5, 7);
    space.alloc(1, 9);
    space.begin_session(0);
    EXPECT_EQ(space.read(0, space.alloc(1, 11)[0]), 11u);
    EXPECT_EQ(mem.words_allocated() - before, 7u * 3u);
    std::set<std::uintptr_t> lines;
    for (std::size_t idx = 0; idx < space.logical_words(); ++idx) {
      const auto words = space.backing(idx);
      EXPECT_EQ(line_of(words[0]), line_of(words[1])) << "record " << idx;
      EXPECT_EQ(line_of(words[0]), line_of(words[2])) << "record " << idx;
      EXPECT_TRUE(lines.insert(line_of(words[0])).second) << "record " << idx;
    }
  };
  // Records per one-shot instance of the lock: the instance's logical words.
  CountingCcModel counting(kProcs);
  VersionedSpace<CountingCcModel> instance_space(counting, kProcs, kW);
  OneShotLock<VersionedSpace<CountingCcModel>> instance(instance_space,
                                                        kProcs, kW);
  const std::size_t lock_records =
      (kProcs + 1) * instance_space.logical_words();
  {
    model::NativeModel m(2);
    check_records(m);
    model::NativeModel lock_mem(kProcs);
    LongLivedLock<model::NativeModel> lock(lock_mem,
                                           {.nprocs = kProcs, .w = kW});
    EXPECT_EQ(lock_mem.words_allocated(), kLockWords);
  }
  {
    static_assert(sizeof(ipc::ShmSpace::Word) == pal::kCacheLine);
    static_assert(sizeof(ipc::ShmSpace::Line) == pal::kCacheLine);
    const std::string name =
        "/aml-test-vspace-layout-" + std::to_string(::getpid());
    std::string error;
    auto arena = ipc::ShmArena::create(name, 1 << 20, 0, &error);
    ipc::ShmArena::unlink(name);  // the mapping outlives the name
    ASSERT_NE(arena, nullptr) << error;
    ipc::ShmSpace shm(*arena, kProcs);
    std::uint64_t before = arena->cursor();
    check_records(shm);
    // The space's version word, then one line per record.
    EXPECT_EQ(arena->cursor() - before, (1 + 7) * pal::kCacheLine);

    before = arena->cursor();
    const std::size_t words_before = shm.words_allocated();
    LongLivedLock<ipc::ShmSpace> lock(shm, {.nprocs = kProcs, .w = kW});
    EXPECT_EQ(shm.words_allocated() - words_before, kLockWords);
    // A padded line per word outside the records, one line per record (3
    // words), plus one line of spin-pool marks.
    const std::size_t lines = (kLockWords - 3 * lock_records) +
                              lock_records + 1;
    EXPECT_EQ(arena->cursor() - before, lines * pal::kCacheLine);
  }
}

TEST(EagerSpaceTest, ResetsEverythingAtOnce) {
  CountingCcModel m(1);
  EagerSpace<CountingCcModel> space(m, 1, 8);
  auto* words = space.alloc(5, 9);
  space.begin_session(0);
  for (int i = 0; i < 5; ++i) space.write(0, words[i], 1);
  const std::uint64_t writes_before = m.counters(0).writes;
  space.next_incarnation(0);
  // Eager: one write per word.
  EXPECT_EQ(m.counters(0).writes, writes_before + 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(space.read(0, words[i]), 9u);
}

TEST(EagerSpaceTest, FaaAndWait) {
  CountingCcModel m(1);
  EagerSpace<CountingCcModel> space(m, 1, 8);
  auto* w = space.alloc(1, 2);
  EXPECT_EQ(space.faa(0, *w, 3), 2u);
  auto out = space.wait(
      0, *w, [](std::uint64_t v) { return v == 5; }, nullptr);
  EXPECT_EQ(out.value, 5u);
}

}  // namespace
}  // namespace aml::core
