// Epoch-based stripe resizing under the deterministic scheduler: mutual
// exclusion and hand-off across the generation transition, drain/retire
// bookkeeping, the always-on StripeStats block, and the grow policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "aml/analysis/oracles.hpp"
#include "aml/harness/audit.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/rng.hpp"
#include "aml/sched/scheduler.hpp"
#include "aml/table/lock_table.hpp"

namespace aml::table {
namespace {

using model::CountingCcModel;
using model::Pid;

using CcTable = LockTable<CountingCcModel>;

// Single-threaded lifecycle: grow-only semantics, epoch accounting, and the
// drain/retire handshake driven through one thread's pin.
TEST(LockTableResize, GrowOnlyAndDrainGate) {
  CountingCcModel mem(1);
  CcTable table(mem, {.max_threads = 1, .stripes = 4, .tree_width = 8});
  EXPECT_EQ(table.epoch(), 0u);
  EXPECT_FALSE(table.draining());

  // Not larger -> refused.
  EXPECT_FALSE(table.resize(4));
  EXPECT_FALSE(table.resize(2));
  EXPECT_EQ(table.stripe_count(), 4u);

  // Hold a key across the resize: the old generation stays pinned, so the
  // table reports draining and refuses a second grow until the exit.
  ASSERT_TRUE(table.enter(0, std::uint64_t{7}));
  EXPECT_TRUE(table.resize(8));
  EXPECT_EQ(table.stripe_count(), 8u);
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_TRUE(table.draining());
  EXPECT_FALSE(table.resize(16));  // previous generation not yet retired

  table.exit(0, std::uint64_t{7});
  EXPECT_FALSE(table.draining());
  EXPECT_TRUE(table.resize(16));  // drain complete; grow proceeds
  EXPECT_EQ(table.epoch(), 2u);
  EXPECT_EQ(table.stripe_count(), 16u);

  // Nested pins: p0 holds two keys (its own pin cell reads 2), p1 holds a
  // third, all on distinct stripes. The old generation drains only when
  // the last of the three passages exits, whichever pid leaves last.
  CountingCcModel mem2(2);
  CcTable nested(mem2, {.max_threads = 2, .stripes = 4, .tree_width = 8});
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> used;
  for (std::uint64_t k = 0; keys.size() < 3; ++k) {
    const std::uint32_t s = nested.stripe_of(k);
    if (std::find(used.begin(), used.end(), s) != used.end()) continue;
    used.push_back(s);
    keys.push_back(k);
  }
  const auto old_pins = [&nested] {
    return nested.debug_generations().front().pins;
  };
  ASSERT_TRUE(nested.enter(0, keys[0]));
  ASSERT_TRUE(nested.enter(0, keys[1]));
  ASSERT_TRUE(nested.enter(1, keys[2]));
  EXPECT_EQ(old_pins(), 3u);
  ASSERT_TRUE(nested.resize(8));
  EXPECT_TRUE(nested.draining());
  EXPECT_EQ(old_pins(), 3u);
  EXPECT_EQ(nested.debug_generations().back().pins, 0u);

  nested.exit(1, keys[2]);
  EXPECT_TRUE(nested.draining());
  EXPECT_EQ(old_pins(), 2u);  // p0's cell alone
  nested.exit(0, keys[0]);
  EXPECT_TRUE(nested.draining());
  EXPECT_EQ(old_pins(), 1u);
  nested.exit(0, keys[1]);
  EXPECT_FALSE(nested.draining());
  EXPECT_EQ(old_pins(), 0u);
  EXPECT_TRUE(nested.debug_generations().front().retired);
}

// A passage that starts during the drain must still exclude a pre-resize
// holder of the same key, and the pre-resize holder's exit must hand the
// lock over (no lost wakeup): p0 acquires key K and parks on a gate; the
// resize happens while p0 holds; p1 then contends for K and must block until
// p0 exits, acquire, and finish.
TEST(LockTableResize, MutualExclusionAcrossEpochTransition) {
  constexpr Pid kProcs = 2;
  constexpr std::uint64_t kKey = 42;
  CountingCcModel mem(kProcs);
  CcTable table(mem, {.max_threads = kProcs, .stripes = 4, .tree_width = 8});

  CountingCcModel::Word* gate = mem.alloc(1, 0);
  std::atomic<int> in_cs{0};
  std::atomic<bool> violation{false};
  std::atomic<bool> p1_done{false};
  bool resized = false;
  bool gate_opened = false;
  std::uint64_t epoch_at_p1_enter = 0;

  sched::StepScheduler::Config cfg;
  cfg.seed = 5;
  cfg.policy = sched::policies::prefer({0});
  sched::StepScheduler scheduler(kProcs, std::move(cfg));
  scheduler.set_idle_callback([&]() {
    // First idle: p0 is parked on the gate holding kKey, p1 is parked
    // waiting for kKey's stripe. Grow the table mid-hold, then release p0.
    if (!resized) {
      resized = true;
      EXPECT_TRUE(table.resize(16));
      EXPECT_TRUE(table.draining());  // p0 (and p1) pinned the old epoch
      return true;
    }
    if (!gate_opened) {
      gate_opened = true;
      mem.poke(*gate, 1);
      return true;
    }
    return false;
  });

  // The generation oracle checks the two-generation protocol at every
  // scheduler decision point of this execution.
  analysis::TableGenOracle<CcTable> gen_oracle(table);
  scheduler.add_invariant_probe([&gen_oracle] { return gen_oracle.check(); });

  mem.set_hook(&scheduler);
  const auto result = scheduler.run([&](Pid p) {
    if (p == 0) {
      ASSERT_TRUE(table.enter(0, kKey));
      if (in_cs.fetch_add(1, std::memory_order_acq_rel) != 0) {
        violation.store(true, std::memory_order_release);
      }
      mem.wait(
          0, *gate, [](std::uint64_t v) { return v != 0; }, nullptr);
      in_cs.fetch_sub(1, std::memory_order_acq_rel);
      table.exit(0, kKey);
    } else {
      epoch_at_p1_enter = table.epoch();
      ASSERT_TRUE(table.enter(1, kKey));  // blocks until p0's exit hands off
      if (in_cs.fetch_add(1, std::memory_order_acq_rel) != 0) {
        violation.store(true, std::memory_order_release);
      }
      in_cs.fetch_sub(1, std::memory_order_acq_rel);
      table.exit(1, kKey);
      p1_done.store(true, std::memory_order_release);
    }
  });
  mem.set_hook(nullptr);

  EXPECT_TRUE(result.violation.empty()) << result.violation;
  EXPECT_FALSE(violation.load());
  EXPECT_TRUE(p1_done.load());  // the hand-off reached p1: no lost wakeup
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_FALSE(table.draining());  // everyone exited -> old epoch retired

  // Post-resize acquisitions run against the new mask: a fresh passage lands
  // in the new generation's stats block.
  const std::uint32_t s = table.stripe_of(kKey);
  const std::uint64_t before = table.stripe_stats(s).acquisitions;
  ASSERT_TRUE(table.enter(0, kKey));
  table.exit(0, kKey);
  EXPECT_EQ(table.stripe_stats(s).acquisitions, before + 1);
}

// Randomized soak: a resize fires mid-run (via the step callback) while
// every process hammers a small Zipf-hot key set, single- and multi-key.
// Mutual exclusion is checked per KEY (stable across the epoch switch);
// afterwards the old generation must have fully drained.
TEST(LockTableResize, RandomizedMidRunResizeKeepsPerKeyExclusion) {
  constexpr Pid kProcs = 4;
  constexpr std::uint32_t kKeys = 16;
  constexpr std::uint32_t kRounds = 10;
  CountingCcModel mem(kProcs);
  CcTable table(mem, {.max_threads = kProcs, .stripes = 2, .tree_width = 8});

  std::deque<std::atomic<int>> in_cs(kKeys);
  std::atomic<bool> violation{false};
  std::atomic<std::uint64_t> passages{0};
  bool resized = false;
  // The audited history, recorded through a sink's hooks around each
  // table call (one ring per pid).
  obs::Metrics log(kProcs, /*ring_capacity=*/4 * kRounds * kProcs);

  sched::StepScheduler::Config cfg;
  cfg.seed = 21;
  sched::StepScheduler scheduler(kProcs, std::move(cfg));
  scheduler.set_step_callback([&](std::uint64_t step) {
    // Fires between grants, i.e. while every process is parked at a gate —
    // resize() here interleaves with passages in whatever state the seed
    // left them.
    if (!resized && step == 400) {
      resized = true;
      EXPECT_TRUE(table.resize(8));
    }
  });

  analysis::TableGenOracle<CcTable> gen_oracle(table);
  scheduler.add_invariant_probe([&gen_oracle] { return gen_oracle.check(); });

  mem.set_hook(&scheduler);
  const auto result = scheduler.run([&](Pid p) {
    pal::ZipfDistribution zipf(kKeys, 0.99);
    pal::Xoshiro256 rng(p * 131 + 17);
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      if (r % 3 == 2) {
        // Multi-key passage through the bridged path.
        std::vector<std::uint64_t> keys{zipf(rng), zipf(rng)};
        const auto hashes = table.plan_hashes(keys);
        log.on_enter(p, 0);
        ASSERT_TRUE(table.enter_hashes(p, hashes));
        log.on_granted(p, 0);
        log.on_exit(p, 0);
        table.exit_hashes(p, hashes);
        passages.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t key = zipf(rng);
      log.on_enter(p, 0);
      ASSERT_TRUE(table.enter(p, key));
      log.on_granted(p, 0);
      if (in_cs[key].fetch_add(1, std::memory_order_acq_rel) != 0) {
        violation.store(true, std::memory_order_release);
      }
      in_cs[key].fetch_sub(1, std::memory_order_acq_rel);
      log.on_exit(p, 0);
      table.exit(p, key);
      passages.fetch_add(1, std::memory_order_relaxed);
    }
  });
  mem.set_hook(nullptr);

  // No generation-protocol violation at any decision point, and every
  // passage that entered its doorway resolved: starvation freedom held
  // across the mid-run resize.
  EXPECT_TRUE(result.violation.empty()) << result.violation;
  const harness::AuditReport audit =
      harness::audit_long_lived(log.ring_snapshot());
  EXPECT_TRUE(audit.starvation_ok) << audit.to_string();
  EXPECT_EQ(audit.unresolved_attempts, 0u);

  EXPECT_FALSE(violation.load());
  EXPECT_TRUE(resized);
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.stripe_count(), 8u);
  EXPECT_FALSE(table.draining());
  EXPECT_EQ(passages.load(), std::uint64_t{kProcs} * kRounds);
}

// StripeStats: acquisitions/aborts/max_inflight feed the grow policy, and
// maybe_grow doubles exactly when a stripe crossed the threshold.
TEST(LockTableResize, StatsDriveMaybeGrow) {
  CountingCcModel mem(2);
  CcTable table(mem, {.max_threads = 2, .stripes = 4, .tree_width = 8});

  // Below threshold: a single-thread passage peaks at depth 1.
  ASSERT_TRUE(table.enter(0, std::uint64_t{1}));
  table.exit(0, std::uint64_t{1});
  EXPECT_EQ(table.peak_inflight(), 1u);
  EXPECT_FALSE(table.maybe_grow({.inflight_threshold = 2, .max_stripes = 64}));

  // Threshold 1 is met by that same passage -> grow to 8.
  EXPECT_TRUE(table.maybe_grow({.inflight_threshold = 1, .max_stripes = 64}));
  EXPECT_EQ(table.stripe_count(), 8u);
  // New generation starts with fresh stats: nothing hot yet.
  EXPECT_EQ(table.peak_inflight(), 0u);
  EXPECT_FALSE(table.maybe_grow({.inflight_threshold = 1, .max_stripes = 64}));

  // The cap refuses doubling past max_stripes.
  ASSERT_TRUE(table.enter(0, std::uint64_t{2}));
  table.exit(0, std::uint64_t{2});
  EXPECT_FALSE(table.maybe_grow({.inflight_threshold = 1, .max_stripes = 8}));

  // Aborted attempts land in the abort counter, not acquisitions. The
  // stripe must actually be held: on a free stripe hand-off wins ties and a
  // raised signal still grants.
  const std::uint32_t s = table.stripe_of(std::uint64_t{9});
  ASSERT_TRUE(table.enter(0, std::uint64_t{9}));
  std::atomic<bool> raised{true};
  EXPECT_FALSE(table.enter(1, std::uint64_t{9}, &raised));
  EXPECT_EQ(table.stripe_stats(s).aborts, 1u);
  table.exit(0, std::uint64_t{9});
}

// Regression for runaway doubling: a pre-grow contention spike must not
// re-trigger the grow policy on the fresh generation. Each further grow has
// to be provoked by fresh contention on the new, wider array.
TEST(LockTableResize, NoRunawayDoubleGrowAfterDrain) {
  constexpr Pid kProcs = 3;
  CountingCcModel mem(kProcs);
  CcTable table(mem, {.max_threads = kProcs, .stripes = 4, .tree_width = 8});
  const CcTable::GrowPolicy policy{.inflight_threshold = 2, .max_stripes = 64};
  constexpr std::uint64_t kKey = 3;

  // A genuine depth-2 spike. `inflight` covers only the enter() window (a
  // holder is not in flight), so depth 2 needs two processes *concurrently*
  // inside enter(): p0 takes the stripe outside the scheduler and keeps
  // holding, then p1 and p2 both park inside enter() behind it — at that
  // idle point the stripe's in-flight depth is exactly 2 — and the idle
  // callback raises both signals to abort them. Leaves p0 holding.
  std::atomic<bool> stop1{false};
  std::atomic<bool> stop2{false};
  const auto spike = [&] {
    ASSERT_TRUE(table.enter(0, kKey));
    stop1.store(false);
    stop2.store(false);
    sched::StepScheduler::Config cfg;
    cfg.seed = 7;
    sched::StepScheduler scheduler(kProcs, std::move(cfg));
    scheduler.set_idle_callback([&] {
      if (stop1.load(std::memory_order_relaxed)) return false;
      stop1.store(true, std::memory_order_relaxed);
      stop2.store(true, std::memory_order_relaxed);
      return true;
    });
    mem.set_hook(&scheduler);
    const auto result = scheduler.run([&](Pid p) {
      if (p == 1) {
        EXPECT_FALSE(table.enter(1, kKey, &stop1));
      }
      if (p == 2) {
        EXPECT_FALSE(table.enter(2, kKey, &stop2));
      }
    });
    mem.set_hook(nullptr);
    EXPECT_TRUE(result.violation.empty()) << result.violation;
  };

  spike();
  EXPECT_EQ(table.peak_inflight(), 2u);
  EXPECT_TRUE(table.maybe_grow(policy));
  EXPECT_EQ(table.stripe_count(), 8u);
  EXPECT_EQ(table.epoch(), 1u);

  // Drain the old generation.
  EXPECT_TRUE(table.draining());
  table.exit(0, kKey);
  EXPECT_FALSE(table.draining());

  // The spike's high-water mark died with its generation: no re-trigger,
  // however often the policy is evaluated.
  EXPECT_EQ(table.peak_inflight(), 0u);
  EXPECT_FALSE(table.maybe_grow(policy));
  EXPECT_FALSE(table.maybe_grow(policy));
  EXPECT_EQ(table.stripe_count(), 8u);

  // Fresh contention on the new array legitimately double-grows.
  spike();
  table.exit(0, kKey);
  EXPECT_TRUE(table.maybe_grow(policy));
  EXPECT_EQ(table.stripe_count(), 16u);
  EXPECT_EQ(table.epoch(), 2u);
}

}  // namespace
}  // namespace aml::table
