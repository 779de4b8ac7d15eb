// table::Frontend's contract, checked once over both placements: the
// in-process NamedLockTable (heap) and the cross-process ShmNamedLockTable
// (shm) share one Session, Guard and timed attempt, so the same typed suite
// runs against each. The suite name carries "Native" so the TSan job runs
// it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include <unistd.h>

#include "aml/core/abortable_lock.hpp"
#include "aml/ipc/shm_table.hpp"
#include "aml/table/hash.hpp"
#include "aml/table/named_table.hpp"

namespace aml::table {
namespace {

using namespace std::chrono_literals;

struct HeapPlacement {
  using Table = NamedLockTable;
  HeapPlacement()
      : table(std::make_unique<Table>(
            TableConfig{.max_threads = 4, .stripes = 4})) {}
  Table::Session open() { return table->open_session(); }
  std::unique_ptr<Table> table;
};

struct ShmPlacement {
  using Table = ipc::ShmNamedLockTable;
  ShmPlacement() {
    static int counter = 0;
    const std::string name = "/aml-test-frontend-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(counter++);
    ipc::ShmTableConfig cfg;
    cfg.nprocs = 4;
    cfg.stripes = 4;
    std::string error;
    table = Table::create(name, cfg, &error);
    Table::unlink(name);  // the mapping outlives the name
    EXPECT_NE(table, nullptr) << error;
  }
  Table::Session open() {
    auto session = table->open_session();
    EXPECT_TRUE(session.has_value());
    return std::move(*session);
  }
  std::unique_ptr<Table> table;
};

template <typename Placement>
class FrontendNative : public ::testing::Test {
 protected:
  Placement placement;
};

using Placements = ::testing::Types<HeapPlacement, ShmPlacement>;
TYPED_TEST_SUITE(FrontendNative, Placements);

// A timed attempt cancels its own deadline, whether it times out behind a
// holder or is granted: no deadline stays armed on the wheel either way.
TYPED_TEST(FrontendNative, TimedAttemptsLeaveNoArmedDeadline) {
  auto& table = *this->placement.table;
  auto holder = this->placement.open();
  auto waiter = this->placement.open();
  const std::uint64_t key = 5;

  {
    auto held = holder.acquire(key);
    EXPECT_FALSE(waiter.try_acquire_for(key, 2ms).has_value());
    EXPECT_EQ(table.pending_deadlines(), 0u);
  }
  auto granted = waiter.try_acquire_for(key, 2s);
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(table.pending_deadlines(), 0u);
}

// A zero or negative budget still arms the wheel, with a deadline already
// due; the wheel thread raises the signal, so against a held key the attempt
// comes back empty, and it leaves no deadline armed.
TYPED_TEST(FrontendNative, ZeroAndNegativeBudgetsFailOnAHeldKey) {
  auto& table = *this->placement.table;
  auto holder = this->placement.open();
  auto waiter = this->placement.open();
  const std::uint64_t key = 13;

  auto held = holder.acquire(key);
  EXPECT_FALSE(waiter.try_acquire_for(key, 0ms).has_value());
  EXPECT_EQ(table.pending_deadlines(), 0u);
  EXPECT_FALSE(waiter.try_acquire_for(key, -5ms).has_value());
  EXPECT_EQ(table.pending_deadlines(), 0u);
}

// A raised caller-managed signal aborts the attempt on a held key; the
// aborted session is left clean and gets the key once the holder releases.
TYPED_TEST(FrontendNative, RaisedSignalAbortsThenSameSessionAcquires) {
  auto holder = this->placement.open();
  auto waiter = this->placement.open();
  const std::uint64_t key = 9;

  auto held = holder.acquire(key);
  AbortSignal signal;
  signal.raise();
  EXPECT_FALSE(waiter.try_acquire(key, signal).has_value());
  held.release();

  signal.reset();
  auto granted = waiter.try_acquire(key, signal);
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(granted->key_hash(), key_hash(key));
}

// Moving a Guard hands over the one release: the moved-from guard releases
// nothing, the moved-to guard releases exactly once (a second exit of the
// stripe would corrupt it), and stripe() is the key's stripe.
TYPED_TEST(FrontendNative, MovedGuardReleasesExactlyOnce) {
  auto& table = *this->placement.table;
  auto owner = this->placement.open();
  auto other = this->placement.open();
  const std::uint64_t key = 21;

  auto first = owner.acquire(key);
  EXPECT_EQ(first.stripe(), table.stripe_of(key));
  auto moved = std::move(first);
  first.release();  // moved-from: a no-op
  EXPECT_EQ(moved.stripe(), table.stripe_of(key));
  EXPECT_EQ(moved.key_hash(), key_hash(key));
  EXPECT_FALSE(other.try_acquire_for(key, 1ms).has_value());

  moved.release();
  moved.release();  // already released: a no-op
  for (int round = 0; round < 3; ++round) {
    auto again = other.try_acquire_for(key, 2s);
    ASSERT_TRUE(again.has_value()) << "round " << round;
  }
  EXPECT_TRUE(owner.try_acquire_for(key, 2s).has_value());
}

}  // namespace
}  // namespace aml::table
