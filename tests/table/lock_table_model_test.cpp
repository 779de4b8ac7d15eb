// LockTable on the counting CC model under the deterministic scheduler:
// mutual exclusion per stripe, key -> stripe mapping, all-or-nothing
// multi-key acquisition, abort-path release, and replay determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "aml/model/counting_cc.hpp"
#include "aml/pal/rng.hpp"
#include "aml/sched/scheduler.hpp"
#include "aml/table/lock_table.hpp"

namespace aml::table {
namespace {

using model::CountingCcModel;
using model::Pid;

using CcTable = LockTable<CountingCcModel>;

TEST(LockTableModel, StripeMapIsStableAndInRange) {
  CountingCcModel mem(2);
  CcTable table(mem, {.max_threads = 2, .stripes = 5});  // rounds up to 8
  EXPECT_EQ(table.stripe_count(), 8u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const std::uint32_t s = table.stripe_of(key);
    EXPECT_LT(s, table.stripe_count());
    EXPECT_EQ(s, table.stripe_of(key));  // deterministic
  }
  EXPECT_EQ(table.stripe_of(std::string_view{"acct:alice"}),
            table.stripe_of(std::string_view{"acct:alice"}));
}

TEST(LockTableModel, PlanSortsAndDeduplicates) {
  CountingCcModel mem(2);
  CcTable table(mem, {.max_threads = 2, .stripes = 4});
  // Enough keys that many collide on 4 stripes: the plan is per key hash,
  // not per stripe, so collisions stay distinct entries.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 32; ++k) keys.push_back(k);
  keys.push_back(7);  // a duplicate key collapses to one hash
  const std::vector<std::uint64_t> hashes = table.plan_hashes(keys);
  EXPECT_TRUE(std::is_sorted(hashes.begin(), hashes.end()));
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
  EXPECT_EQ(hashes.size(), 32u);
}

// Returns a key whose current-generation stripe is `s`.
std::uint64_t key_on_stripe(const CcTable& table, std::uint32_t s) {
  for (std::uint64_t k = 0;; ++k) {
    if (table.stripe_of(k) == s) return k;
  }
}

// Zipfian keys, every process contending: per-stripe mutual exclusion holds
// on every interleaving the seed produces.
TEST(LockTableModel, PerStripeMutualExclusion) {
  constexpr Pid kProcs = 4;
  constexpr std::uint32_t kStripes = 4;
  constexpr std::uint32_t kRounds = 12;
  CountingCcModel mem(kProcs);
  CcTable table(mem, {.max_threads = kProcs, .stripes = kStripes, .tree_width = 8});

  std::deque<std::atomic<int>> in_cs(table.stripe_count());
  std::atomic<bool> violation{false};
  pal::ZipfDistribution zipf(64, 0.99);

  sched::StepScheduler::Config cfg;
  cfg.seed = 42;
  sched::StepScheduler scheduler(kProcs, std::move(cfg));
  mem.set_hook(&scheduler);
  scheduler.run([&](Pid p) {
    pal::Xoshiro256 rng(p * 31 + 7);
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      const std::uint64_t key = zipf(rng);
      const std::uint32_t s = table.stripe_of(key);
      ASSERT_TRUE(table.enter(p, key));
      if (in_cs[s].fetch_add(1, std::memory_order_acq_rel) != 0) {
        violation.store(true, std::memory_order_release);
      }
      in_cs[s].fetch_sub(1, std::memory_order_acq_rel);
      table.exit(p, key);
    }
  });
  mem.set_hook(nullptr);
  EXPECT_FALSE(violation.load());
}

// Multi-key acquisition: every stripe of the key set is held simultaneously.
TEST(LockTableModel, EnterAllHoldsEveryStripe) {
  constexpr Pid kProcs = 3;
  CountingCcModel mem(kProcs);
  CcTable table(mem, {.max_threads = kProcs, .stripes = 8, .tree_width = 8});

  std::deque<std::atomic<int>> in_cs(table.stripe_count());
  std::atomic<bool> violation{false};

  sched::StepScheduler::Config cfg;
  cfg.seed = 7;
  sched::StepScheduler scheduler(kProcs, std::move(cfg));
  mem.set_hook(&scheduler);
  scheduler.run([&](Pid p) {
    pal::Xoshiro256 rng(p * 97 + 3);
    for (std::uint32_t r = 0; r < 8; ++r) {
      std::vector<std::uint64_t> keys{rng.below(64), rng.below(64),
                                      rng.below(64)};
      const std::vector<std::uint64_t> hashes = table.plan_hashes(keys);
      std::vector<std::uint32_t> stripes;
      for (const std::uint64_t key : keys) {
        stripes.push_back(table.stripe_of(key));
      }
      std::sort(stripes.begin(), stripes.end());
      stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
      ASSERT_TRUE(table.enter_hashes(p, hashes));
      for (const std::uint32_t s : stripes) {
        if (in_cs[s].fetch_add(1, std::memory_order_acq_rel) != 0) {
          violation.store(true, std::memory_order_release);
        }
      }
      for (const std::uint32_t s : stripes) {
        in_cs[s].fetch_sub(1, std::memory_order_acq_rel);
      }
      table.exit_hashes(p, hashes);
    }
  });
  mem.set_hook(nullptr);
  EXPECT_FALSE(violation.load());
}

// All-or-nothing: p1's enter_hashes crosses a stripe p0 holds; p1's abort
// signal is raised while it waits, and every stripe p1 had already taken
// must be released — p1 then re-acquires each singly (a leak would park p1
// forever and the scheduler would abort on the liveness violation).
TEST(LockTableModel, EnterHashesAbortReleasesPrefix) {
  constexpr Pid kProcs = 2;
  CountingCcModel mem(kProcs);
  CcTable table(mem, {.max_threads = kProcs, .stripes = 8, .tree_width = 8});

  // One key per stripe, so p1's ascending sweep acquires stripes 0..3 before
  // blocking on p0's key at stripe 4.
  std::vector<std::uint64_t> keys;
  for (std::uint32_t s = 0; s < table.stripe_count(); ++s) {
    keys.push_back(key_on_stripe(table, s));
  }
  const std::uint32_t blocked_stripe = 4;
  const std::vector<std::uint64_t> hashes = table.plan_hashes(keys);
  std::atomic<bool> p1_aborted{false};

  CountingCcModel::Word* gate = mem.alloc(1, 0);
  std::deque<std::atomic<bool>> signals(kProcs);

  sched::StepScheduler::Config cfg;
  cfg.seed = 3;
  // p0 first so it certainly holds blocked_stripe before p1's sweep arrives.
  cfg.policy = sched::policies::prefer({0});
  sched::StepScheduler scheduler(kProcs, std::move(cfg));
  bool signal_raised = false;
  bool gate_opened = false;
  scheduler.set_idle_callback([&]() {
    if (!signal_raised) {
      // Everyone is parked: p0 on the gate, p1 on blocked_stripe. Abort p1.
      signal_raised = true;
      signals[1].store(true, std::memory_order_release);
      return true;
    }
    if (!gate_opened) {
      gate_opened = true;
      mem.poke(*gate, 1);
      return true;
    }
    return false;
  });

  mem.set_hook(&scheduler);
  scheduler.run([&](Pid p) {
    if (p == 0) {
      ASSERT_TRUE(table.enter(0, keys[blocked_stripe]));
      mem.wait(
          0, *gate, [](std::uint64_t v) { return v != 0; }, nullptr);
      table.exit(0, keys[blocked_stripe]);
    } else {
      const bool ok = table.enter_hashes(1, hashes, &signals[1]);
      EXPECT_FALSE(ok);
      p1_aborted.store(true, std::memory_order_release);
      // Every stripe below blocked_stripe was acquired and must have been
      // released; re-acquire each one singly. A leaked stripe deadlocks here
      // and the scheduler hard-aborts.
      for (std::uint32_t s = 0; s < blocked_stripe; ++s) {
        ASSERT_TRUE(table.enter(1, keys[s]));
        table.exit(1, keys[s]);
      }
    }
  });
  mem.set_hook(nullptr);
  EXPECT_TRUE(p1_aborted.load());
}

// Replay determinism: the same seed produces the identical RMR trace —
// the property the BENCH_table_* byte-stability contract rests on.
TEST(LockTableModel, SameSeedSameRmrTrace) {
  auto run = [](std::uint64_t seed) {
    constexpr Pid kProcs = 4;
    CountingCcModel mem(kProcs);
    CcTable table(mem,
                  {.max_threads = kProcs, .stripes = 4, .tree_width = 8});
    pal::ZipfDistribution zipf(32, 0.99);
    sched::StepScheduler::Config cfg;
    cfg.seed = seed;
    sched::StepScheduler scheduler(kProcs, std::move(cfg));
    mem.set_hook(&scheduler);
    scheduler.run([&](Pid p) {
      pal::Xoshiro256 rng(p + seed);
      for (std::uint32_t r = 0; r < 10; ++r) {
        const std::uint64_t key = zipf(rng);
        table.enter(p, key);
        table.exit(p, key);
      }
    });
    mem.set_hook(nullptr);
    std::vector<std::uint64_t> rmrs;
    for (Pid p = 0; p < kProcs; ++p) rmrs.push_back(mem.counters(p).rmrs);
    return rmrs;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // and the seed actually matters
}

}  // namespace
}  // namespace aml::table
