// NamedLockTable on real hardware: session (thread-id) churn, Zipfian key
// contention, deadline storms, and multi-key transactional invariants.
// These suites run under the TSan CI job (suite names match Native|Stress).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "aml/pal/backoff.hpp"
#include "aml/pal/rng.hpp"
#include "aml/pal/threading.hpp"
#include "aml/table/named_table.hpp"

namespace aml::table {
namespace {

using namespace std::chrono_literals;

TEST(TableNative, SessionIdsAreRecycled) {
  NamedLockTable table({.max_threads = 2, .stripes = 4});
  std::uint32_t first;
  {
    auto session = table.open_session();
    first = session.id();
    EXPECT_EQ(table.live_sessions(), 1u);
  }
  EXPECT_EQ(table.live_sessions(), 0u);
  auto session = table.open_session();
  EXPECT_EQ(session.id(), first);  // the released id is served again
}

TEST(TableNative, TimedAcquireRespectsDeadline) {
  NamedLockTable table({.max_threads = 2, .stripes = 4});
  auto holder = table.open_session();
  auto contender_thread = [&] {
    auto session = table.open_session();
    // Same key -> same stripe: must time out while held.
    auto g = session.try_acquire_for(std::uint64_t{5}, 2ms);
    EXPECT_FALSE(g.has_value());
    // Different stripe: must succeed even under the storm. Find a key on
    // another stripe.
    std::uint64_t other = 6;
    while (table.stripe_of(other) == table.stripe_of(std::uint64_t{5})) {
      ++other;
    }
    auto g2 = session.try_acquire_for(other, 100ms);
    EXPECT_TRUE(g2.has_value());
  };
  auto held = holder.acquire(std::uint64_t{5});
  std::thread t(contender_thread);
  t.join();
  held.release();
  auto after = holder.try_acquire_for(std::uint64_t{5}, 100ms);
  EXPECT_TRUE(after.has_value());
}

// try_acquire_all_for edge contracts (see the method's doc comment): an
// empty key set succeeds vacuously whatever the budget; with keys, an
// expired or non-positive budget yields nullopt, never a free success.
TEST(TableNative, TryAcquireAllForEdgeBudgets) {
  NamedLockTable table({.max_threads = 2, .stripes = 4});
  auto session = table.open_session();
  const std::vector<std::uint64_t> none;
  const std::vector<std::uint64_t> keys{7, 8};

  // Empty key set: vacuous immediate success for zero, negative, and
  // positive budgets alike; the guard holds nothing and releases cleanly.
  for (const auto budget : {0ms, -5ms, 10ms}) {
    auto tx = session.try_acquire_all_for(none, budget);
    ASSERT_TRUE(tx.has_value()) << "budget " << budget.count() << "ms";
    EXPECT_TRUE(tx->key_hashes().empty());
    EXPECT_TRUE(tx->stripes().empty());
    tx->release();
  }

  // Non-empty key set with an already-expired budget: nullopt, regardless
  // of whether the keys are free (zero and negative budgets, sliced or
  // not).
  EXPECT_FALSE(session.try_acquire_all_for(keys, 0ms).has_value());
  EXPECT_FALSE(session.try_acquire_all_for(keys, -5ms).has_value());
  EXPECT_FALSE(session.try_acquire_all_for(keys, 0ms, 1ms).has_value());

  // Sanity: the same keys with a real budget succeed.
  auto ok = session.try_acquire_all_for(keys, 100ms);
  EXPECT_TRUE(ok.has_value());
}

// A sliced timed acquisition must keep retrying until the wall-clock
// deadline truly passes: a holder that releases midway through the budget
// (after several slices have failed) must still be overtaken.
TEST(TableNative, TryAcquireAllForSlicedRetriesUntilWallClock) {
  NamedLockTable table({.max_threads = 2, .stripes = 4});
  auto holder = table.open_session();
  const std::vector<std::uint64_t> keys{11, 12};
  auto held = holder.acquire(std::uint64_t{11});
  std::atomic<bool> got{false};
  std::thread contender([&] {
    auto session = table.open_session();
    // Slice (3ms) is far shorter than the budget: early attempts abort
    // while the key is held, later ones land after the release below.
    auto tx = session.try_acquire_all_for(keys, 500ms, 3ms);
    got.store(tx.has_value());
  });
  std::this_thread::sleep_for(30ms);
  held.release();
  contender.join();
  EXPECT_TRUE(got.load());
}

// The headline native stress: pooled threads churn sessions, acquire
// Zipf-distributed keys under tiny deadlines (a deadline storm: most
// attempts on hot keys abort), and occasionally run multi-key transactions.
// Mutual exclusion is checked per stripe; bounded abort keeps the whole
// thing finite.
TEST(TableNativeStress, ZipfDeadlineStormWithSessionChurn) {
  constexpr std::uint32_t kThreads = 8;
  constexpr int kRounds = 400;
  ObservedNamedLockTable table({.max_threads = kThreads, .stripes = 8});
  std::deque<std::atomic<int>> in_cs(table.stripe_count());
  std::atomic<bool> violation{false};
  std::atomic<std::uint64_t> granted{0};
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> tx_done{0};
  pal::ZipfDistribution zipf(128, 0.99);
  // The random storm makes timeouts *likely*, not certain (microscopic
  // critical sections can dodge every microscopic budget on a fast machine),
  // so stage one guaranteed collision first: thread 0 holds a key for the
  // full duration of thread 1's zero-budget attempt on the same key, which
  // must therefore time out. Zero budget only loses a tie on a FREE lock;
  // against a holder it aborts.
  constexpr std::uint64_t kCollisionKey = 3;
  std::atomic<bool> collision_held{false};
  std::atomic<bool> collision_done{false};

  pal::run_threads(kThreads, [&](std::uint32_t t) {
    pal::Xoshiro256 rng(t * 7919 + 1);
    if (t == 0) {
      auto session = table.open_session();
      auto g = session.acquire(kCollisionKey);
      collision_held.store(true, std::memory_order_release);
      while (!collision_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    } else if (t == 1) {
      auto session = table.open_session();
      while (!collision_held.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      auto g = session.try_acquire_for(kCollisionKey,
                                       std::chrono::microseconds{0});
      EXPECT_FALSE(g.has_value());
      if (!g.has_value()) timed_out.fetch_add(1, std::memory_order_relaxed);
      collision_done.store(true, std::memory_order_release);
    }
    for (int i = 0; i < kRounds;) {
      // Session churn: each session serves a burst of rounds, then the
      // thread releases its id and leases a fresh one.
      auto session = table.open_session();
      const int burst = 1 + static_cast<int>(rng.below(16));
      for (int b = 0; b < burst && i < kRounds; ++b, ++i) {
        const std::uint64_t key = zipf(rng);
        if (rng.chance_ppm(200000)) {
          // Multi-key transaction on 2-3 keys with a real budget.
          std::vector<std::uint64_t> keys{key, zipf(rng)};
          if (rng.chance_ppm(500000)) keys.push_back(zipf(rng));
          auto tx = session.try_acquire_all_for(keys, 50ms, 2ms);
          if (tx.has_value()) {
            for (const std::uint32_t s : tx->stripes()) {
              if (in_cs[s].fetch_add(1, std::memory_order_acq_rel) != 0) {
                violation.store(true, std::memory_order_release);
              }
            }
            for (const std::uint32_t s : tx->stripes()) {
              in_cs[s].fetch_sub(1, std::memory_order_acq_rel);
            }
            tx_done.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        // Deadline storm: mostly microscopic budgets, some zero (already
        // expired when the attempt starts).
        const auto budget = rng.chance_ppm(300000)
                                ? std::chrono::microseconds{0}
                                : std::chrono::microseconds{rng.below(200)};
        auto g = session.try_acquire_for(key, budget);
        if (g.has_value()) {
          const std::uint32_t s = g->stripe();
          if (in_cs[s].fetch_add(1, std::memory_order_acq_rel) != 0) {
            violation.store(true, std::memory_order_release);
          }
          // Hold the stripe for a real window so zero-budget attempts can
          // collide with a holder; an instantaneous critical section makes
          // the timeout half of the storm vanish.
          for (int spin = 0; spin < 1000; ++spin) pal::cpu_relax();
          in_cs[s].fetch_sub(1, std::memory_order_acq_rel);
          granted.fetch_add(1, std::memory_order_relaxed);
        } else {
          timed_out.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  EXPECT_FALSE(violation.load()) << "two holders inside one stripe";
  EXPECT_EQ(table.live_sessions(), 0u);
  // The storm must have produced both outcomes, or it tested nothing.
  EXPECT_GT(granted.load(), 0u);
  EXPECT_GT(timed_out.load(), 0u);
  // Per-stripe sinks saw the traffic: every single-key grant is one stripe
  // acquisition, and each transaction adds one per stripe it held, so the
  // rollup is bounded below by the grants and above by grants + 3 per tx
  // (plus released-and-retried slices, which also acquire).
  std::uint64_t sink_acquisitions = 0;
  for (std::uint32_t s = 0; s < table.stripe_count(); ++s) {
    sink_acquisitions += table.stripe_metrics(s).totals().acquisitions;
  }
  EXPECT_GE(sink_acquisitions, granted.load() + tx_done.load());
}

// Guard move semantics: ownership transfers exactly once. The moved-from
// guard's release() must be a no-op — a second exit_hash/exit_hashes on a
// key the thread no longer holds trips the table's hold-record assert — and
// the moved-to guard's exit must happen, or the re-acquire below could never
// be granted. A timed attempt that expires returns an empty optional and
// leaves nothing held behind.
TEST(TableNative, GuardMoveTransfersOwnership) {
  NamedLockTable table({.max_threads = 2, .stripes = 4});
  auto owner = table.open_session();
  auto other = table.open_session();
  const std::uint64_t key = 7;
  const std::vector<std::uint64_t> keys{1, 2, 3};

  {
    auto g = owner.acquire(key);
    auto moved(std::move(g));
    g.release();  // NOLINT(bugprone-use-after-move): spec'd no-op husk
    EXPECT_EQ(moved.key_hash(), NamedLockTable::Table::hash_of(key));
  }  // both destructors run; only `moved` exits
  auto again = other.try_acquire_for(key, 100ms);
  ASSERT_TRUE(again.has_value());
  again->release();

  {
    auto tx = owner.acquire_all(keys);
    auto moved(std::move(tx));
    tx.release();  // NOLINT(bugprone-use-after-move): spec'd no-op husk
    EXPECT_EQ(moved.key_hashes().size(), keys.size());
  }
  auto tx_again = other.try_acquire_all_for(keys, 100ms);
  ASSERT_TRUE(tx_again.has_value());
  tx_again->release();

  // An expired attempt holds nothing: once the holder lets go, the holder
  // can take the key straight back (a leaked hold by `other` would block it).
  auto held = owner.acquire(key);
  EXPECT_FALSE(other.try_acquire_for(key, 1ms).has_value());
  held.release();
  auto retaken = owner.try_acquire_for(key, 100ms);
  EXPECT_TRUE(retaken.has_value());
}

// Grow end to end on hardware: manufactured contention trips the policy
// (fired manually via try_grow so the grow happens at an exact point), the
// table doubles mid-hold, and a guard taken before the grow still excludes
// contenders arriving after it (the bridged drain).
TEST(TableNative, AutoGrowKeepsHeldGuardExclusive) {
  // auto_grow off: the policy must only run through the explicit try_grow
  // below, not from a contender's own operation count. Threshold 1 makes
  // the policy decision deterministic (inflight counts concurrent enter
  // *attempts*, so depth >= 2 would need two racing contenders).
  ObservedNamedLockTable table({.max_threads = 4,
                                .stripes = 2,
                                .auto_grow = false,
                                .max_stripes = 16,
                                .grow_inflight_threshold = 1,
                                .grow_check_interval = 1});
  auto holder = table.open_session();
  auto held = holder.acquire(std::uint64_t{5});

  // A timed contender on the held key aborts against the holder, leaving
  // the storm's footprint in the stripe stats.
  std::thread contender([&] {
    auto session = table.open_session();
    EXPECT_FALSE(session.try_acquire_for(std::uint64_t{5}, 2ms).has_value());
  });
  contender.join();

  ASSERT_TRUE(table.try_grow());
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.stripe_count(), 4u);
  EXPECT_TRUE(table.draining());  // `held` pins the pre-grow generation

  // Post-grow contender on the same key: the bridge must still route it
  // into the old holder's stripe — it times out while `held` lives.
  std::thread post_grow([&] {
    auto session = table.open_session();
    EXPECT_FALSE(session.try_acquire_for(std::uint64_t{5}, 2ms).has_value());
  });
  post_grow.join();

  held.release();
  EXPECT_FALSE(table.draining());  // last old-generation pin dropped

  auto after = holder.try_acquire_for(std::uint64_t{5}, 100ms);
  EXPECT_TRUE(after.has_value());
}

// Auto-grow under churn: Zipf-hot blocking traffic on a deliberately tiny
// table. Exclusion is checked per KEY (stripe indices go stale the moment
// the table grows), and the run must end fully drained.
TEST(TableNativeStress, AutoGrowZipfKeepsPerKeyExclusion) {
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kKeys = 32;
  constexpr int kRounds = 200;
  ObservedNamedLockTable table({.max_threads = kThreads,
                                .stripes = 2,
                                .auto_grow = true,
                                .max_stripes = 64,
                                .grow_inflight_threshold = 2,
                                .grow_check_interval = 4});
  std::deque<std::atomic<int>> in_cs(kKeys);
  std::atomic<bool> violation{false};
  std::atomic<std::uint64_t> granted{0};
  pal::ZipfDistribution zipf(kKeys, 0.99);

  pal::run_threads(kThreads, [&](std::uint32_t t) {
    auto session = table.open_session();
    pal::Xoshiro256 rng(t * 263 + 29);
    for (int i = 0; i < kRounds; ++i) {
      if (rng.chance_ppm(150000)) {
        std::vector<std::uint64_t> keys{zipf(rng), zipf(rng)};
        if (keys[1] == keys[0]) keys.pop_back();  // distinct keys only
        auto tx = session.acquire_all(keys);
        for (const std::uint64_t k : keys) {
          if (in_cs[k].fetch_add(1, std::memory_order_acq_rel) != 0) {
            violation.store(true, std::memory_order_release);
          }
        }
        for (const std::uint64_t k : keys) {
          in_cs[k].fetch_sub(1, std::memory_order_acq_rel);
        }
        granted.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t key = zipf(rng);
      auto g = session.acquire(key);
      if (in_cs[key].fetch_add(1, std::memory_order_acq_rel) != 0) {
        violation.store(true, std::memory_order_release);
      }
      in_cs[key].fetch_sub(1, std::memory_order_acq_rel);
      granted.fetch_add(1, std::memory_order_relaxed);
    }
  });

  EXPECT_FALSE(violation.load()) << "two holders on one key";
  EXPECT_FALSE(table.draining()) << "old generation leaked pins";
  EXPECT_EQ(granted.load(), std::uint64_t{kThreads} * kRounds);
  // Hot traffic on 2 stripes with threshold 2 trips the policy in practice;
  // record rather than require (the scheduler could in principle serialize).
  RecordProperty("final_epoch", static_cast<int>(table.epoch()));
  RecordProperty("final_stripes", static_cast<int>(table.stripe_count()));
}

// Bank-transfer invariant: multi-key transactions keep the total balance
// constant even when every account pair is contended and deadlines abort
// some transfers midway (all-or-nothing must hold).
TEST(TableNativeStress, MultiKeyTransfersConserveTotal) {
  constexpr std::uint32_t kThreads = 6;
  constexpr std::uint32_t kAccounts = 16;
  constexpr int kRounds = 300;
  constexpr std::int64_t kInitial = 1000;
  NamedLockTable table({.max_threads = kThreads, .stripes = 8});
  std::vector<std::int64_t> balance(kAccounts, kInitial);  // guarded by table
  std::atomic<std::uint64_t> transfers{0};

  pal::run_threads(kThreads, [&](std::uint32_t t) {
    auto session = table.open_session();
    pal::Xoshiro256 rng(t * 131 + 11);
    for (int i = 0; i < kRounds; ++i) {
      const std::uint64_t from = rng.below(kAccounts);
      std::uint64_t to = rng.below(kAccounts);
      if (to == from) to = (to + 1) % kAccounts;
      auto tx = session.try_acquire_all_for(
          std::vector<std::uint64_t>{from, to}, 100ms, 1ms);
      if (!tx.has_value()) continue;
      const std::int64_t amount = static_cast<std::int64_t>(rng.below(50));
      balance[from] -= amount;
      balance[to] += amount;
      transfers.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::int64_t total = 0;
  for (const std::int64_t b : balance) total += b;
  EXPECT_EQ(total, static_cast<std::int64_t>(kAccounts) * kInitial);
  EXPECT_GT(transfers.load(), 0u);
}

}  // namespace
}  // namespace aml::table
