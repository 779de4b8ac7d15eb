// SpinNodePool: pool discipline, pin-based quiescence, the N+1 sizing
// invariant and the allocation order, over both placements — the counting
// model (marks in process memory) and ShmSpace (marks in the arena).
#include "aml/core/spin_pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include <unistd.h>

#include "aml/ipc/shm_arena.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/model/counting_cc.hpp"

namespace aml::core {

using model::Pid;

// The placements name the typed tests (SpinPool.<Test><aml::core::...>), so
// they live outside the anonymous namespace; "ShmIpc" is what the sanitizer
// job's Ipc filter matches.
struct CountingCcPlacement {
  using Space = model::CountingCcModel;
  explicit CountingCcPlacement(Pid nprocs) : space(nprocs) {}
  Space space;
};

/// A fresh segment, unlinked at once: only this mapping ever sees it.
struct ShmIpcPlacement {
  using Space = ipc::ShmSpace;
  explicit ShmIpcPlacement(Pid nprocs)
      : arena(make_arena()), space(*arena, nprocs) {}
  static std::unique_ptr<ipc::ShmArena> make_arena() {
    static int counter = 0;
    const std::string name = "/aml-test-pool-" + std::to_string(::getpid()) +
                             "-" + std::to_string(counter++);
    std::string error;
    auto arena = ipc::ShmArena::create(name, 1 << 20, 0, &error);
    EXPECT_NE(arena, nullptr) << error;
    ipc::ShmArena::unlink(name);
    return arena;
  }
  std::unique_ptr<ipc::ShmArena> arena;
  Space space;
};

namespace {

template <typename P>
class SpinPool : public ::testing::Test {
 protected:
  using Pool = SpinNodePool<typename P::Space>;

  /// select + commit, as the in-process journal's switch_node does.
  static std::uint32_t alloc(Pool& pool, Pid owner) {
    const std::uint32_t idx = pool.select(owner, owner);
    pool.commit(owner, owner, idx);
    return idx;
  }
};

using Placements = ::testing::Types<CountingCcPlacement, ShmIpcPlacement>;
TYPED_TEST_SUITE(SpinPool, Placements);

TYPED_TEST(SpinPool, AllocReturnsDistinctNodesFromOwnPool) {
  TypeParam at(2);
  typename TestFixture::Pool pool(at.space, 2, 3);
  std::set<std::uint32_t> seen{pool.initial_node()};  // owner 0's node 2
  for (int i = 0; i < 2; ++i) {
    const std::uint32_t idx = TestFixture::alloc(pool, 0);
    EXPECT_LT(idx, 3u);  // owner 0's range
    EXPECT_TRUE(seen.insert(idx).second);
  }
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t idx = TestFixture::alloc(pool, 1);
    EXPECT_GE(idx, 3u);
    EXPECT_TRUE(seen.insert(idx).second);
  }
}

TYPED_TEST(SpinPool, UnallocMakesNodeReusable) {
  TypeParam at(1);
  typename TestFixture::Pool pool(at.space, 1, 2);
  const std::uint32_t idx = TestFixture::alloc(pool, 0);
  pool.unalloc(0, 0, idx);
  EXPECT_EQ(TestFixture::alloc(pool, 0), idx);
}

TYPED_TEST(SpinPool, RetiredUnpinnedNodeIsReclaimed) {
  TypeParam at(1);
  auto& m = at.space;
  typename TestFixture::Pool pool(m, 1, 3);
  const std::uint32_t a = TestFixture::alloc(pool, 0);
  const std::uint32_t b = TestFixture::alloc(pool, 0);
  // Retire `a` (the switch that replaced it sets go).
  m.write(0, *pool.node(a).go, 1);
  // Nothing free -> reclaim scan runs and finds `a`.
  const std::uint32_t c = TestFixture::alloc(pool, 0);
  EXPECT_EQ(c, a);
  EXPECT_NE(c, b);
  // Reclaimed node's go must be reset.
  EXPECT_EQ(m.read(0, *pool.node(c).go), 0u);
}

TYPED_TEST(SpinPool, PinnedNodeIsNotReclaimed) {
  TypeParam at(2);
  auto& m = at.space;
  typename TestFixture::Pool pool(m, 2, 2);  // owner 0: node 1 is initial
  const std::uint32_t a = pool.initial_node();
  m.write(0, *pool.node(a).go, 1);     // retired...
  pool.publish_pin(1, 1, a);           // ...but process 1 pins it
  const std::uint32_t b = TestFixture::alloc(pool, 0);
  EXPECT_NE(b, a);
  m.write(0, *pool.node(b).go, 1);
  // Only `b` is reclaimable now.
  EXPECT_EQ(TestFixture::alloc(pool, 0), b);
  // Unpin: now `a` comes back.
  pool.clear_pin(1, 1);
  m.write(0, *pool.node(b).go, 1);  // b retired again
  const std::uint32_t d = TestFixture::alloc(pool, 0);
  const std::uint32_t e = TestFixture::alloc(pool, 0);
  EXPECT_NE(d, e);
  EXPECT_TRUE((d == a && e == b) || (d == b && e == a));
}

TYPED_TEST(SpinPool, PinOfForeignNodeDoesNotBlockOwnPool) {
  TypeParam at(2);
  typename TestFixture::Pool pool(at.space, 2, 2);
  const std::uint32_t other = TestFixture::alloc(pool, 1);  // owner 1's node
  pool.publish_pin(0, 0, other);
  const std::uint32_t own = TestFixture::alloc(pool, 0);  // must still succeed
  EXPECT_LT(own, 2u);
}

TYPED_TEST(SpinPool, NPlusOneSizingSurvivesWorstCasePinning) {
  // N = 3 processes, pool 4 per owner. All other processes pin distinct
  // nodes of owner 0; owner 0 must still allocate.
  TypeParam at(3);
  auto& m = at.space;
  typename TestFixture::Pool pool(m, 3, 4);
  const std::uint32_t n0 = pool.initial_node();
  const std::uint32_t n1 = TestFixture::alloc(pool, 0);
  const std::uint32_t n2 = TestFixture::alloc(pool, 0);
  m.write(0, *pool.node(n0).go, 1);
  m.write(0, *pool.node(n1).go, 1);
  m.write(0, *pool.node(n2).go, 1);
  pool.publish_pin(1, 1, n0);
  pool.publish_pin(2, 2, n1);
  pool.publish_pin(0, 0, n2);  // owner's own pin
  // Three retired-but-pinned nodes; the fourth is free.
  const std::uint32_t n3 = TestFixture::alloc(pool, 0);
  EXPECT_NE(n3, n0);
  EXPECT_NE(n3, n1);
  EXPECT_NE(n3, n2);
}

// The in-process pool's historical free list only ever popped the highest
// free index and reclaimed only when empty; the counting-model reports
// depend on that order.
TYPED_TEST(SpinPool, AllocatesHighestFreeFirstAndReclaimsOnlyWhenNoneFree) {
  TypeParam at(2);
  auto& m = at.space;
  typename TestFixture::Pool pool(m, 2, 4);
  EXPECT_EQ(pool.initial_node(), 3u);
  EXPECT_EQ(TestFixture::alloc(pool, 0), 2u);
  EXPECT_EQ(TestFixture::alloc(pool, 1), 7u);  // owner 1 starts all free
  m.write(0, *pool.node(3).go, 1);  // retire 3 while 1 and 0 are free
  EXPECT_EQ(TestFixture::alloc(pool, 0), 1u);
  pool.unalloc(0, 0, 1);
  EXPECT_EQ(TestFixture::alloc(pool, 0), 1u);  // an unalloc'd node is next
  EXPECT_EQ(TestFixture::alloc(pool, 0), 0u);
  EXPECT_EQ(m.read(0, *pool.node(3).go), 1u);  // no reclaim has run yet
  // Nothing free: one scan reclaims 3, and 3 is the next node out.
  EXPECT_EQ(TestFixture::alloc(pool, 0), 3u);
  EXPECT_EQ(m.read(0, *pool.node(3).go), 0u);
}

// A reclaimer that dies between a node's go reset and its free mark leaves
// the node reclaiming; the next select finishes it instead of leaking it.
TYPED_TEST(SpinPool, TornReclaimIsFinishedNotLeaked) {
  TypeParam at(1);
  auto& m = at.space;
  typename TestFixture::Pool pool(m, 1, 3);
  const std::uint32_t a = TestFixture::alloc(pool, 0);
  const std::uint32_t b = TestFixture::alloc(pool, 0);
  m.write(0, *pool.node(pool.initial_node()).go, 1);
  m.write(0, *pool.node(a).go, 1);
  pool.debug_reclaim_torn(0, 0);  // both retired nodes torn mid-reclaim
  EXPECT_EQ(m.read(0, *pool.node(a).go), 0u);
  std::set<std::uint32_t> got;
  got.insert(TestFixture::alloc(pool, 0));
  got.insert(TestFixture::alloc(pool, 0));
  EXPECT_EQ(got, (std::set<std::uint32_t>{pool.initial_node(), a}));
  EXPECT_EQ(m.read(0, *pool.node(b).go), 0u);
}

}  // namespace
}  // namespace aml::core
