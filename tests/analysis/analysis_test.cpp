// aml::analysis end-to-end: trace round-trips and replay, DPOR-vs-unreduced
// equivalence on a seeded hand-off bug (and the DSM variant's clean pass and
// bug find on the same workload), and one fire-test per invariant
// oracle (each manufactures an illegal state through a debug poke and
// observes the oracle catch it with a replayable trace).
//
// Suite names deliberately avoid the "Explorer" prefix so `ctest -R
// Explorer` keeps timing only the pre-existing exploration tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "aml/analysis/oracles.hpp"
#include "aml/analysis/trace.hpp"
#include "aml/analysis/workloads.hpp"
#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/sched/explorer.hpp"
#include "aml/table/lock_table.hpp"

namespace aml::analysis {
namespace {

using model::CountingCcModel;
using model::Pid;

std::string temp_dir() {
  const char* t = std::getenv("TMPDIR");
  return (t != nullptr && t[0] != '\0') ? t : "/tmp";
}

// --- trace format ----------------------------------------------------------

TEST(AmlTrace, WriteLoadRoundTrip) {
  TraceFile trace;
  trace.workload = "round-trip";
  trace.nprocs = 3;
  trace.seed = 42;
  trace.reason = "synthetic failure: spaces preserved";
  trace.choices = {0, 1, 2, 1, 0};
  trace.footprints.resize(5);
  trace.footprints[0] = {7, model::Footprint::kNoAddr,
                         model::Footprint::Kind::kMutate,
                         model::Footprint::Kind::kNone};
  trace.footprints[1] = {7, 9, model::Footprint::Kind::kRead,
                         model::Footprint::Kind::kRead};

  const std::string path = temp_dir() + "/aml-roundtrip.trace";
  ASSERT_TRUE(write_trace(path, trace));
  TraceFile loaded;
  std::string error;
  ASSERT_TRUE(load_trace(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.workload, trace.workload);
  EXPECT_EQ(loaded.nprocs, trace.nprocs);
  EXPECT_EQ(loaded.seed, trace.seed);
  EXPECT_EQ(loaded.reason, trace.reason);
  EXPECT_EQ(loaded.choices, trace.choices);
  ASSERT_EQ(loaded.footprints.size(), trace.footprints.size());
  EXPECT_EQ(loaded.footprints[0].addr, 7u);
  EXPECT_EQ(loaded.footprints[0].kind, model::Footprint::Kind::kMutate);
  EXPECT_EQ(loaded.footprints[1].addr2, 9u);
  std::remove(path.c_str());
}

TEST(AmlTrace, LoadRejectsMissingAndMalformed) {
  TraceFile t;
  std::string error;
  EXPECT_FALSE(load_trace(temp_dir() + "/aml-no-such.trace", &t, &error));
  EXPECT_FALSE(error.empty());
}

// --- DPOR equivalence on the seeded hand-off bug ---------------------------

sched::ExploreConfig bug_config(sched::Reduction reduction) {
  sched::ExploreConfig config;
  config.nprocs = 4;
  config.preemption_bound = 2;
  config.max_executions = 500'000;
  config.reduction = reduction;
  config.workload = "oneshot-handoff-bug";
  config.trace_dir = temp_dir();
  return config;
}

TEST(DporEquivalence, BothExplorersFindSeededBugDporNeedsFarFewer) {
  const auto* bug = find_workload("oneshot-handoff-bug");
  ASSERT_NE(bug, nullptr);

  const auto unreduced =
      sched::explore(bug_config(sched::Reduction::kNone), bug->factory);
  ASSERT_TRUE(unreduced.failed) << "unreduced explorer missed the seeded bug";
  EXPECT_NE(unreduced.failure.find("lost wake-up"), std::string::npos)
      << unreduced.failure;

  const auto dpor =
      sched::explore(bug_config(sched::Reduction::kDpor), bug->factory);
  ASSERT_TRUE(dpor.failed) << "DPOR explorer missed the seeded bug";
  EXPECT_NE(dpor.failure.find("lost wake-up"), std::string::npos)
      << dpor.failure;
  EXPECT_GT(dpor.races_seen, 0u);

  // The reduction must enumerate strictly fewer executions, and at most a
  // quarter of what the unreduced search needed (measured: 27 vs 564).
  EXPECT_LT(dpor.executions, unreduced.executions);
  EXPECT_LE(dpor.executions * 4, unreduced.executions)
      << "dpor=" << dpor.executions << " unreduced=" << unreduced.executions;

  // Both emitted replayable traces.
  EXPECT_FALSE(unreduced.trace_path.empty());
  EXPECT_FALSE(dpor.trace_path.empty());
  std::remove(unreduced.trace_path.c_str());
  std::remove(dpor.trace_path.c_str());
}

TEST(DporEquivalence, CleanWorkloadPassesUnderDpor) {
  const auto* clean = find_workload("oneshot-handoff-clean");
  ASSERT_NE(clean, nullptr);
  auto config = bug_config(sched::Reduction::kDpor);
  config.workload = clean->name;
  const auto stats = sched::explore(config, clean->factory);
  EXPECT_FALSE(stats.failed) << stats.failure;
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.executions, 10u);  // a real state space was covered
  EXPECT_GT(stats.races_seen, 0u);

  // The unreduced search over the same workload must agree.
  config.reduction = sched::Reduction::kNone;
  const auto full = sched::explore(config, clean->factory);
  EXPECT_FALSE(full.failed) << full.failure;
  EXPECT_FALSE(full.truncated);
  EXPECT_LT(stats.executions, full.executions);
}

TEST(DporEquivalence, FailureTraceReplaysDeterministically) {
  const auto* bug = find_workload("oneshot-handoff-bug");
  ASSERT_NE(bug, nullptr);
  const auto stats =
      sched::explore(bug_config(sched::Reduction::kDpor), bug->factory);
  ASSERT_TRUE(stats.failed);
  ASSERT_FALSE(stats.trace_path.empty());

  TraceFile trace;
  std::string error;
  ASSERT_TRUE(load_trace(stats.trace_path, &trace, &error)) << error;
  EXPECT_EQ(trace.workload, "oneshot-handoff-bug");
  EXPECT_EQ(trace.reason, stats.failure);
  ASSERT_FALSE(trace.choices.empty());
  EXPECT_EQ(trace.footprints.size(), trace.choices.size());

  sched::ExploreConfig replay;
  replay.nprocs = bug->nprocs;
  replay.workload = bug->name;
  replay.replay_choices = trace.choices;
  const auto replayed = sched::explore(replay, bug->factory);
  EXPECT_EQ(replayed.executions, 1u);
  ASSERT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.failure, stats.failure);
  std::remove(stats.trace_path.c_str());
}

// --- the DSM variant under the same workload and oracles -------------------

TEST(DporDsmTwin, CleanWorkloadPassesUnderDpor) {
  const auto* clean = find_workload("oneshot-dsm-handoff-clean");
  ASSERT_NE(clean, nullptr);
  auto config = bug_config(sched::Reduction::kDpor);
  config.workload = clean->name;
  const auto stats = sched::explore(config, clean->factory);
  EXPECT_FALSE(stats.failed) << stats.failure;
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.executions, 10u);  // a real state space was covered
  EXPECT_GT(stats.races_seen, 0u);
}

TEST(DporDsmTwin, SeededBugLosesWakeUp) {
  const auto* bug = find_workload("oneshot-dsm-handoff-bug");
  ASSERT_NE(bug, nullptr);
  auto config = bug_config(sched::Reduction::kDpor);
  config.workload = bug->name;
  const auto stats = sched::explore(config, bug->factory);
  ASSERT_TRUE(stats.failed) << "DPOR missed the seeded DSM bug";
  EXPECT_NE(stats.failure.find("lost wake-up"), std::string::npos)
      << stats.failure;
  ASSERT_FALSE(stats.trace_path.empty());
  std::remove(stats.trace_path.c_str());
}

// --- oracle fire-tests -----------------------------------------------------
//
// Pattern: a tiny scheduled workload runs legally; at a fixed decision point
// the step callback pokes an illegal value into the watched structure; the
// oracle probe (which runs at every decision point) must catch it, the
// execution must fail, and the explorer must emit a loadable trace.

struct FireOutcome {
  sched::ExploreStats stats;
  bool trace_loads = false;
  std::string reason;
};

FireOutcome run_fire(const std::string& label,
                     const std::function<void(sched::ExecutionContext&)>& f) {
  sched::ExploreConfig config;
  config.nprocs = 2;
  config.max_executions = 1;  // the canonical schedule is enough
  config.workload = label;
  config.trace_dir = temp_dir();
  FireOutcome out;
  out.stats = sched::explore(config, f);
  if (!out.stats.trace_path.empty()) {
    TraceFile trace;
    std::string error;
    out.trace_loads = load_trace(out.stats.trace_path, &trace, &error);
    out.reason = trace.reason;
    std::remove(out.stats.trace_path.c_str());
  }
  return out;
}

TEST(OracleFire, TreeOracleCatchesClearedBit) {
  const auto out = run_fire("oracle-tree", [](sched::ExecutionContext& ctx) {
    CountingCcModel m(2);
    m.set_hook(&ctx.scheduler());
    core::OneShotLock<CountingCcModel> lock(m, 3, 4, core::Find::kPlain);
    TreeOracle<CountingCcModel> oracle(lock.tree());
    ctx.scheduler().add_invariant_probe([&oracle] { return oracle.check(); });
    ctx.scheduler().set_step_callback([&](std::uint64_t step) {
      // The 3-slot W=4 tree root starts with its padding bit set; clearing
      // the word violates T1 (bits are set-only).
      if (step == 3) lock.tree().debug_poke_node(1, 0, 0);
    });
    ctx.run([&](Pid p) {
      if (lock.enter(p, nullptr).acquired) lock.exit(p);
    });
  });
  ASSERT_TRUE(out.stats.failed);
  EXPECT_NE(out.stats.failure.find("TreeOracle"), std::string::npos)
      << out.stats.failure;
  EXPECT_TRUE(out.trace_loads);
  EXPECT_NE(out.reason.find("TreeOracle"), std::string::npos);
}

TEST(OracleFire, OneShotOracleCatchesTailOverflow) {
  const auto out = run_fire("oracle-oneshot", [](sched::ExecutionContext&
                                                     ctx) {
    CountingCcModel m(2);
    m.set_hook(&ctx.scheduler());
    core::OneShotLock<CountingCcModel> lock(m, 3, 4, core::Find::kPlain);
    OneShotOracle<core::OneShotLock<CountingCcModel>> oracle(lock);
    ctx.scheduler().add_invariant_probe([&oracle] { return oracle.check(); });
    // Probes are read-only and the execution runs to completion after a
    // violation, so the poke must land where the algorithm never consumes
    // it: after both processes have done their doorway F&A (tail == 2),
    // nothing reads tail again — but exit still produces decision points
    // where the probe observes the illegal value.
    bool poked = false;
    ctx.scheduler().set_step_callback([&](std::uint64_t) {
      if (!poked && lock.probe_tail() == 2) {
        poked = true;
        lock.debug_poke_tail(99);  // Q1: tail > capacity
      }
    });
    ctx.run([&](Pid p) {
      if (lock.enter(p, nullptr).acquired) lock.exit(p);
    });
  });
  ASSERT_TRUE(out.stats.failed);
  EXPECT_NE(out.stats.failure.find("OneShotOracle"), std::string::npos)
      << out.stats.failure;
  EXPECT_TRUE(out.trace_loads);
}

TEST(OracleFire, OneShotOracleCatchesNonBooleanGo) {
  const auto out = run_fire("oracle-go", [](sched::ExecutionContext& ctx) {
    CountingCcModel m(2);
    m.set_hook(&ctx.scheduler());
    core::OneShotLock<CountingCcModel> lock(m, 3, 4, core::Find::kPlain);
    OneShotOracle<core::OneShotLock<CountingCcModel>> oracle(lock);
    ctx.scheduler().add_invariant_probe([&oracle] { return oracle.check(); });
    ctx.scheduler().set_step_callback([&](std::uint64_t step) {
      if (step == 4) lock.debug_poke_go(2, 7);  // Q4: go must be 0/1
    });
    ctx.run([&](Pid p) {
      if (lock.enter(p, nullptr).acquired) lock.exit(p);
    });
  });
  ASSERT_TRUE(out.stats.failed);
  EXPECT_NE(out.stats.failure.find("OneShotOracle"), std::string::npos)
      << out.stats.failure;
}

TEST(OracleFire, LockDescOracleCatchesRefcountOverflow) {
  const auto out = run_fire("oracle-desc", [](sched::ExecutionContext& ctx) {
    CountingCcModel m(2);
    m.set_hook(&ctx.scheduler());
    core::LongLivedLock<CountingCcModel> lock(m, {.nprocs = 2, .w = 8});
    LockDescOracle<core::LongLivedLock<CountingCcModel>> oracle(lock);
    ctx.scheduler().add_invariant_probe([&oracle] { return oracle.check(); });
    // Poke only after the LAST join (no future enter F&A would trip the
    // algorithm's own refcnt-overflow assert), and keep the current
    // lock/spn fields so the still-inside process' exit path does not see
    // a phantom instance switch. Its cleanup F&A sees refcnt 17 != 1 and
    // leaves quietly; the probes at exit's decision points catch L1/L2.
    std::atomic<int> entered{0};
    bool poked = false;
    ctx.scheduler().set_step_callback([&](std::uint64_t) {
      if (!poked && entered.load(std::memory_order_seq_cst) == 2) {
        poked = true;
        const auto d = lock.probe_desc();
        lock.debug_poke_desc(d.lock, d.spn, 17);  // L1: refcnt > N
      }
    });
    ctx.run([&](Pid p) {
      const bool acquired = lock.enter(p, nullptr).acquired;
      entered.fetch_add(1, std::memory_order_seq_cst);
      if (acquired) lock.exit(p);
    });
  });
  ASSERT_TRUE(out.stats.failed);
  EXPECT_NE(out.stats.failure.find("LockDescOracle"), std::string::npos)
      << out.stats.failure;
  EXPECT_TRUE(out.trace_loads);
}

TEST(OracleFire, TableGenOracleCatchesRetiredCurrent) {
  const auto out = run_fire("oracle-table", [](sched::ExecutionContext& ctx) {
    CountingCcModel m(2);
    m.set_hook(&ctx.scheduler());
    table::LockTable<CountingCcModel> table(
        m, {.max_threads = 2, .stripes = 2, .tree_width = 8});
    TableGenOracle<table::LockTable<CountingCcModel>> oracle(table);
    ctx.scheduler().add_invariant_probe([&oracle] { return oracle.check(); });
    ctx.scheduler().set_step_callback([&](std::uint64_t step) {
      // G2: the current generation can never be retired.
      if (step == 6) table.debug_force_retired(0, true);
    });
    ctx.run([&](Pid p) {
      ASSERT_TRUE(table.enter(p, std::uint64_t{5} + p));
      table.exit(p, std::uint64_t{5} + p);
    });
  });
  ASSERT_TRUE(out.stats.failed);
  EXPECT_NE(out.stats.failure.find("TableGenOracle"), std::string::npos)
      << out.stats.failure;
  EXPECT_TRUE(out.trace_loads);
}

TEST(OracleFire, TableGenOracleCatchesPinnedRetiredGeneration) {
  const auto out = run_fire("oracle-pins", [](sched::ExecutionContext& ctx) {
    CountingCcModel m(2);
    m.set_hook(&ctx.scheduler());
    table::LockTable<CountingCcModel> table(
        m, {.max_threads = 2, .stripes = 2, .tree_width = 8});
    bool resized = false;
    TableGenOracle<table::LockTable<CountingCcModel>> oracle(table);
    ctx.scheduler().add_invariant_probe([&oracle] { return oracle.check(); });
    bool corrupted = false;
    ctx.scheduler().set_step_callback([&](std::uint64_t step) {
      if (step == 6 && !resized) {
        resized = true;
        // A legal resize retires generation 0 once it drains (the first
        // unpin after the switch); pinning the *retired* generation is the
        // illegal state (G2). Wait for the retirement to actually land —
        // corrupting the pin count earlier would merely block retirement
        // and never violate anything.
        ASSERT_TRUE(table.resize(4));
      }
      if (resized && !corrupted) {
        const auto gens = table.debug_generations();
        if (gens.size() == 2 && gens[0].retired) {
          corrupted = true;
          table.debug_corrupt_pins(0, 1);
        }
      }
    });
    ctx.run([&](Pid p) {
      for (int r = 0; r < 4; ++r) {
        ASSERT_TRUE(table.enter(p, std::uint64_t{3} + p));
        table.exit(p, std::uint64_t{3} + p);
      }
    });
  });
  ASSERT_TRUE(out.stats.failed);
  EXPECT_NE(out.stats.failure.find("TableGenOracle"), std::string::npos)
      << out.stats.failure;
}

// --- oracles stay silent on legal executions --------------------------------

TEST(OracleQuiet, ResizeBridgeFullExplorationNeverFires) {
  // The table-resize-bridge workload overlaps two passages on one key while
  // a resize grows the table under them (and p1's abort/retry can cross the
  // epoch switch). DPOR-complete exploration must find no mutex violation,
  // no lost wake-up, and no generation-protocol violation — the
  // dual-acquire bridge keeps one key's passages on a shared stripe lock.
  const auto* wl = find_workload("table-resize-bridge");
  ASSERT_NE(wl, nullptr);
  sched::ExploreConfig config;
  config.nprocs = wl->nprocs;
  config.preemption_bound = 2;
  config.max_executions = 500'000;
  config.reduction = sched::Reduction::kDpor;
  config.workload = wl->name;
  config.trace_dir = temp_dir();
  const auto stats = sched::explore(config, wl->factory);
  EXPECT_FALSE(stats.failed) << stats.failure;
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.executions, 10u);  // a real state space was covered
}

TEST(OracleQuiet, JayantiAbandonEpochsFullExplorationNeverFires) {
  // Two try-lock processes abandon at adjacent queue positions and one
  // revives and re-abandons — the window where a state-only claim-CAS
  // would ABA (consume the second abandonment while splicing to the
  // first's prev, putting two walkers on one position). DPOR-complete
  // exploration must find no mutex violation, no lost wake-up, and no
  // runaway walk: the epoch-versioned claim fails stale and re-observes.
  const auto* wl = find_workload("jayanti-abandon-epochs");
  ASSERT_NE(wl, nullptr);
  sched::ExploreConfig config;
  config.nprocs = wl->nprocs;
  config.preemption_bound = 2;
  config.max_executions = 500'000;
  config.reduction = sched::Reduction::kDpor;
  config.workload = wl->name;
  config.trace_dir = temp_dir();
  const auto stats = sched::explore(config, wl->factory);
  EXPECT_FALSE(stats.failed) << stats.failure;
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.executions, 10u);  // a real state space was covered
}

TEST(OracleQuiet, FullExplorationOfCleanWorkloadNeverFires) {
  // The clean hand-off workload registers the queue and tree oracles on
  // every execution; DPOR-complete exploration (182 executions) must not
  // report a single violation. (The bug-equivalence tests above already
  // assert the *scheduling* failure is found; this asserts no false
  // positives from the oracles.)
  const auto* clean = find_workload("oneshot-handoff-clean");
  ASSERT_NE(clean, nullptr);
  auto config = bug_config(sched::Reduction::kDpor);
  config.workload = clean->name;
  const auto stats = sched::explore(config, clean->factory);
  EXPECT_FALSE(stats.failed) << stats.failure;
}

}  // namespace
}  // namespace aml::analysis
