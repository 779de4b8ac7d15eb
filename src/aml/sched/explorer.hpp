// Bounded-exhaustive schedule exploration (stateless model checking).
//
// An execution under StepScheduler is fully determined by the sequence of
// scheduling choices, so the space of executions of a deterministic workload
// is a tree: each node is a decision point (the sorted runnable set), each
// edge a chosen process. Explorer enumerates that tree by *replay*: every
// execution reconstructs the world from scratch and follows a planned prefix
// of choices, then a default policy; the decisions actually taken (and the
// alternatives available) are recorded, and depth-first backtracking yields
// the next plan.
//
// Full enumeration explodes, so two orthogonal reductions are provided:
//
//  * Iterative context bounding (Musuvathi & Qadeer): continuing the
//    previously-running process is always free; *preempting* it (scheduling
//    someone else while it is still runnable) consumes budget. Empirically
//    almost all concurrency bugs need very few preemptions; with budget c
//    the number of executions is polynomial, O((steps * nprocs)^c).
//    Switching away from a process that is blocked or done is free (it is
//    not a preemption), and all alternatives at such forced switches are
//    explored.
//
//  * Dynamic partial-order reduction with sleep sets (Flanagan & Godefroid
//    2005; Godefroid 1996), Reduction::kDpor. The counting models announce
//    each step's (address, read|mutate) footprint, so the explorer builds
//    the happens-before relation of the executed path with vector clocks
//    and plants backtrack points only where two *dependent* steps of
//    different processes race; commuting interleavings are never
//    enumerated twice. Sleep sets additionally prune sibling branches whose
//    first steps are independent of everything explored since.
//
// The two compose: DPOR picks *where* to branch, the preemption bound caps
// *how many* chargeable branches a single execution may take. Composition
// with a finite preemption bound is heuristically incomplete (a backtrack
// point can exceed the budget and be dropped — see "bounded partial-order
// reduction" literature); raise the bound (the bound-3 ctests in
// tools/CMakeLists.txt do) for stronger guarantees.
//
// Abort signals must be modelled as gated Signals (model::alloc_signal /
// raise_signal) for DPOR workloads: a plain std::atomic<bool> store has no
// footprint, so reduction could not see the race between an abort delivery
// and the wait it interrupts and would soundly-looking — but wrongly —
// collapse those interleavings.
//
// Failure handling: a workload marks an execution failed via
// ExecutionContext::fail() (or implicitly when a scheduler invariant probe
// fires). The explorer records the first failure, writes a replayable trace
// file (aml/analysis/trace), and — with stop_on_failure — stops. A recorded
// trace can be re-executed exactly with ExploreConfig::replay_choices or
// tools/aml_replay.
//
// Usage:
//   ExploreConfig cfg{.nprocs = 3, .preemption_bound = 2};
//   cfg.reduction = Reduction::kDpor;
//   ExploreStats stats = explore(cfg, [&](ExecutionContext& ctx) {
//     // Build a fresh world; install ctx.scheduler() hook; define bodies.
//     ...
//   });
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aml/analysis/trace.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/config.hpp"
#include "aml/sched/scheduler.hpp"

namespace aml::sched {

/// Which state-space reduction the explorer applies on top of the
/// preemption bound.
enum class Reduction : std::uint8_t {
  kNone,  ///< enumerate every budget-respecting interleaving
  kDpor,  ///< dynamic partial-order reduction + sleep sets
};

struct ExploreConfig {
  Pid nprocs = 2;
  /// Maximum preemptive context switches per execution.
  std::uint32_t preemption_bound = 2;
  /// Hard cap on enumerated executions (stats report truncation).
  std::uint64_t max_executions = 250'000;
  std::uint64_t max_steps_per_exec = 100'000;
  Reduction reduction = Reduction::kNone;
  /// Stop at the first failing execution (after writing its trace).
  bool stop_on_failure = true;
  /// Workload label stamped into emitted trace files ("workload" if empty).
  std::string workload;
  /// Directory for failure traces; empty => $AMLOCK_TRACE_DIR, else ".".
  std::string trace_dir;
  /// Non-empty => replay exactly this choice sequence as a single execution
  /// (e.g. TraceFile::choices loaded from a failure trace) instead of
  /// exploring. The workload must be the one that produced the trace.
  std::vector<Pid> replay_choices;
};

struct ExploreStats {
  std::uint64_t executions = 0;
  std::uint64_t decisions_explored = 0;  ///< total decision points visited
  std::uint64_t max_depth = 0;           ///< longest execution (steps)
  bool truncated = false;                ///< hit max_executions
  // --- failure reporting ---
  bool failed = false;                 ///< some execution reported a failure
  std::uint64_t failing_execution = 0; ///< 1-based index of the first one
  std::string failure;                 ///< its description
  std::string trace_path;              ///< replayable trace file ("" if none)
  // --- reduction accounting (kDpor) ---
  std::uint64_t races_seen = 0;   ///< dependent concurrent pairs found
  std::uint64_t sleep_skips = 0;  ///< branches pruned by sleep sets
};

namespace detail {

/// One decision point of the last execution: what was runnable, what we
/// picked, and whether alternatives are chargeable preemptions.
struct Decision {
  std::vector<Pid> runnable;  ///< sorted
  std::uint32_t picked = 0;   ///< index into runnable
  bool prev_runnable = false; ///< the previously-scheduled process could
                              ///< have continued (so switching = preemption)
  Pid prev = model::kNoPid;
  std::uint32_t preemptions_used = 0;  ///< budget consumed BEFORE this pick
};

/// Sleep set: processes whose next step (the recorded footprint) commutes
/// with everything explored since they were put to sleep, making any branch
/// that starts with them redundant.
using SleepSet = std::map<Pid, model::Footprint>;

/// One decision point on the DPOR search stack. Persistent across the
/// replayed executions that share its prefix.
struct DporNode {
  std::vector<Pid> runnable;              ///< sorted
  std::vector<model::Footprint> pending;  ///< per-pid next-step footprints
  Pid chosen = model::kNoPid;             ///< branch currently explored
  std::vector<Pid> backtrack;             ///< branches to explore (set)
  std::vector<Pid> done;                  ///< branches explored/abandoned
  SleepSet sleep;                         ///< sleep set at entry + exhausted
                                          ///< siblings
  Pid prev = model::kNoPid;
  bool prev_runnable = false;
  std::uint32_t preemptions_used = 0;  ///< budget consumed BEFORE this node
};

/// One executed step, as recorded by the DPOR policy.
struct DporStep {
  std::vector<Pid> runnable;
  std::vector<model::Footprint> pending;  ///< per-pid, at this decision
  SleepSet sleep;                         ///< sleep set at this decision
  Pid picked = model::kNoPid;
  Pid prev = model::kNoPid;
  bool prev_runnable = false;
  std::uint32_t preemptions_used = 0;
};

inline bool contains(const std::vector<Pid>& v, Pid p) {
  for (Pid x : v) {
    if (x == p) return true;
  }
  return false;
}

}  // namespace detail

/// Handed to the world factory so it can construct the scheduler-driven run.
/// The factory must: build a fresh world, call run(body), and check
/// invariants afterwards — via fail() (preferred: lets the explorer stop and
/// write a replayable trace) and/or gtest EXPECTs. Scheduler invariant-probe
/// violations (aml::analysis oracles) are picked up automatically.
class ExecutionContext {
 public:
  ExecutionContext(Pid nprocs, SchedulerConfig config)
      : scheduler_(nprocs, std::move(config)) {}

  StepScheduler& scheduler() { return scheduler_; }

  StepScheduler::Result run(const std::function<void(Pid)>& body) {
    result_ = scheduler_.run(body);
    if (!result_.violation.empty() && failure_.empty()) {
      failure_ = result_.violation + " (at step " +
                 std::to_string(result_.violation_step) + ")";
    }
    return result_;
  }

  /// Record this execution as failed (first call wins). The explorer writes
  /// a replayable trace and, with stop_on_failure, stops exploring.
  void fail(std::string why) {
    if (failure_.empty()) failure_ = std::move(why);
  }
  bool failed() const { return !failure_.empty(); }
  const std::string& failure() const { return failure_; }

  /// Result of the (last) run, including the recorded choice sequence.
  const StepScheduler::Result& result() const { return result_; }

 private:
  StepScheduler scheduler_;
  StepScheduler::Result result_;
  std::string failure_;
};

namespace detail {

/// Shared failure bookkeeping: fold one execution's outcome into the stats
/// and persist the first failure's trace file. Returns true if exploration
/// should stop.
inline bool note_execution(const ExploreConfig& config, ExploreStats& stats,
                           const ExecutionContext& ctx) {
  if (!ctx.failed()) return false;
  if (!stats.failed) {
    stats.failed = true;
    stats.failing_execution = stats.executions;
    stats.failure = ctx.failure();
    analysis::TraceFile trace;
    trace.workload = config.workload.empty() ? "workload" : config.workload;
    trace.nprocs = config.nprocs;
    trace.seed = 1;
    trace.reason = ctx.failure();
    trace.choices = ctx.result().trace;
    trace.footprints = ctx.result().footprints;
    std::string dir = config.trace_dir;
    if (dir.empty()) {
      const char* env = std::getenv("AMLOCK_TRACE_DIR");
      dir = (env != nullptr && env[0] != '\0') ? env : ".";
    }
    const std::string path =
        dir + "/" + trace.workload + "-exec" +
        std::to_string(stats.failing_execution) + ".trace";
    if (analysis::write_trace(path, trace)) stats.trace_path = path;
  }
  return config.stop_on_failure;
}

inline SchedulerConfig exec_scheduler_config(const ExploreConfig& config,
                                             Policy policy) {
  SchedulerConfig scfg;
  scfg.policy = std::move(policy);
  scfg.max_steps = config.max_steps_per_exec;
  scfg.record_trace = true;  // failures must be replayable
  scfg.trace_label = config.workload.empty() ? "workload" : config.workload;
  scfg.trace_dir = config.trace_dir;
  return scfg;
}

/// Replay mode: run the recorded choice sequence once.
inline ExploreStats explore_replay(
    const ExploreConfig& config,
    const std::function<void(ExecutionContext&)>& factory) {
  ExploreStats stats;
  Policy policy = policies::replay(config.replay_choices, [](const PickContext& ctx) {
    // Past the recorded suffix (e.g. the trace was cut at the failure
    // point): finish deterministically.
    return ctx.runnable.front();
  });
  ExecutionContext ctx(config.nprocs,
                       exec_scheduler_config(config, std::move(policy)));
  factory(ctx);
  stats.executions = 1;
  stats.decisions_explored = ctx.result().trace.size();
  stats.max_depth = ctx.result().trace.size();
  note_execution(config, stats, ctx);
  return stats;
}

/// The original bounded-exhaustive enumeration (Reduction::kNone). Kept
/// byte-for-byte in exploration order so existing exact-count tests pin its
/// semantics; failure plumbing only reads the outcome.
inline ExploreStats explore_unreduced(
    const ExploreConfig& config,
    const std::function<void(ExecutionContext&)>& factory) {
  ExploreStats stats;
  // The plan: for decision k < plan.size(), pick runnable[plan[k]].
  std::vector<std::uint32_t> plan;

  for (;;) {
    if (stats.executions >= config.max_executions) {
      stats.truncated = true;
      break;
    }
    // --- one execution -------------------------------------------------
    auto trace = std::make_shared<std::vector<detail::Decision>>();
    auto prev = std::make_shared<Pid>(model::kNoPid);
    auto preemptions = std::make_shared<std::uint32_t>(0);
    const std::vector<std::uint32_t> current_plan = plan;

    Policy policy = [trace, prev, preemptions,
                     current_plan](const PickContext& ctx) {
      detail::Decision decision;
      decision.runnable = ctx.runnable;  // sorted by scheduler
      decision.prev = *prev;
      decision.preemptions_used = *preemptions;
      bool prev_runnable = false;
      std::uint32_t prev_idx = 0;
      for (std::uint32_t i = 0; i < ctx.runnable.size(); ++i) {
        if (ctx.runnable[i] == *prev) {
          prev_runnable = true;
          prev_idx = i;
        }
      }
      decision.prev_runnable = prev_runnable;
      const std::size_t k = trace->size();
      std::uint32_t pick_idx;
      if (k < current_plan.size()) {
        pick_idx = current_plan[k];
        AML_ASSERT(pick_idx < ctx.runnable.size(),
                   "explorer replay diverged: plan index out of range");
      } else {
        // Default: continue the previous process if possible (free),
        // otherwise the lowest-id runnable.
        pick_idx = prev_runnable ? prev_idx : 0;
      }
      const Pid picked = ctx.runnable[pick_idx];
      if (prev_runnable && picked != *prev) ++(*preemptions);
      decision.picked = pick_idx;
      trace->push_back(decision);
      *prev = picked;
      return picked;
    };

    ExecutionContext ctx(config.nprocs,
                         exec_scheduler_config(config, std::move(policy)));
    factory(ctx);

    stats.executions++;
    stats.decisions_explored += trace->size();
    if (trace->size() > stats.max_depth) stats.max_depth = trace->size();
    if (detail::note_execution(config, stats, ctx)) break;

    // --- backtrack: find the deepest decision with an unexplored,
    // budget-respecting alternative --------------------------------------
    //
    // At each decision the canonical exploration order is: the default pick
    // first (continue prev, else lowest id), then the remaining indices
    // ascending. The first execution through a prefix always takes the
    // canonical first choice there, so "the next alternative after
    // d.picked" is well-defined in canonical order regardless of the
    // default's raw index.
    bool advanced = false;
    for (std::size_t k = trace->size(); k-- > 0;) {
      const detail::Decision& d = (*trace)[k];
      std::uint32_t default_idx = 0;
      if (d.prev_runnable) {
        for (std::uint32_t i = 0; i < d.runnable.size(); ++i) {
          if (d.runnable[i] == d.prev) default_idx = i;
        }
      }
      std::vector<std::uint32_t> canon;
      canon.push_back(default_idx);
      for (std::uint32_t i = 0; i < d.runnable.size(); ++i) {
        if (i != default_idx) canon.push_back(i);
      }
      std::size_t pos = 0;
      while (pos < canon.size() && canon[pos] != d.picked) ++pos;
      AML_ASSERT(pos < canon.size(), "picked index missing from canon order");
      for (std::size_t next = pos + 1; next < canon.size(); ++next) {
        const std::uint32_t candidate = canon[next];
        std::uint32_t cost = d.preemptions_used;
        const Pid cand_pid = d.runnable[candidate];
        if (d.prev_runnable && cand_pid != d.prev) cost++;
        if (cost > config.preemption_bound) continue;
        plan.clear();
        for (std::size_t j = 0; j < k; ++j) {
          plan.push_back((*trace)[j].picked);
        }
        plan.push_back(candidate);
        advanced = true;
        break;
      }
      if (advanced) break;
    }
    if (!advanced) break;  // tree exhausted
  }
  return stats;
}

/// Dynamic partial-order reduction (Reduction::kDpor).
///
/// Persistent DFS over decision nodes. Each execution replays the stack's
/// chosen prefix, then extends with the default pick (continue prev, else
/// lowest non-sleeping). Afterwards the executed path is analyzed with
/// vector clocks: every pair of dependent steps by different processes that
/// are not already ordered by happens-before is a race, and the racing
/// process is planted in the backtrack set of the earlier step's node.
/// Exhausted branches move into their node's sleep set and prune sibling
/// subtrees that start independently.
inline ExploreStats explore_dpor(
    const ExploreConfig& config,
    const std::function<void(ExecutionContext&)>& factory) {
  ExploreStats stats;
  std::vector<detail::DporNode> nodes;  // DFS stack (shared prefix)
  std::vector<Pid> plan;                // chosen pid per stack node

  for (;;) {
    if (stats.executions >= config.max_executions) {
      stats.truncated = true;
      break;
    }
    // --- one execution: replay `plan`, extend by default ----------------
    auto steps = std::make_shared<std::vector<detail::DporStep>>();
    auto prev = std::make_shared<Pid>(model::kNoPid);
    auto preemptions = std::make_shared<std::uint32_t>(0);
    auto cur_sleep = std::make_shared<detail::SleepSet>();
    const std::vector<Pid> current_plan = plan;
    const std::vector<detail::DporNode>* stack = &nodes;

    Policy policy = [steps, prev, preemptions, cur_sleep, current_plan,
                     stack](const PickContext& ctx) {
      const std::size_t k = steps->size();
      detail::DporStep step;
      step.runnable = ctx.runnable;
      step.pending = ctx.pending;
      step.prev = *prev;
      step.preemptions_used = *preemptions;
      step.prev_runnable = detail::contains(ctx.runnable, *prev);

      Pid picked = model::kNoPid;
      if (k < current_plan.size()) {
        // Replaying the stack prefix: the node's sleep set is authoritative
        // (it accumulates exhausted siblings the forward pass cannot see).
        step.sleep = (*stack)[k].sleep;
        picked = current_plan[k];
        AML_ASSERT(detail::contains(ctx.runnable, picked),
                   "DPOR replay diverged: planned process not runnable");
      } else {
        // Fresh extension: default pick among non-sleeping processes.
        step.sleep = *cur_sleep;
        if (step.prev_runnable && step.sleep.find(*prev) == step.sleep.end()) {
          picked = *prev;
        } else {
          for (Pid cand : ctx.runnable) {
            if (step.sleep.find(cand) == step.sleep.end()) {
              picked = cand;
              break;
            }
          }
          // Every runnable process asleep should be unreachable (a sleeping
          // process only re-wakes via a dependent step, which would have
          // removed it); fall back defensively rather than abort.
          if (picked == model::kNoPid) picked = ctx.runnable.front();
        }
      }
      if (step.prev_runnable && picked != *prev) ++(*preemptions);
      step.picked = picked;

      // Child sleep set: keep entries whose footprint commutes with the
      // picked step; the picked process itself always leaves the set.
      const model::Footprint& fp = ctx.pending[picked];
      detail::SleepSet next_sleep;
      for (const auto& [pid, f] : step.sleep) {
        if (pid != picked && !model::footprints_dependent(f, fp)) {
          next_sleep.emplace(pid, f);
        }
      }
      *cur_sleep = std::move(next_sleep);
      steps->push_back(std::move(step));
      *prev = picked;
      return picked;
    };

    ExecutionContext ctx(config.nprocs,
                         exec_scheduler_config(config, std::move(policy)));
    factory(ctx);

    stats.executions++;
    stats.decisions_explored += steps->size();
    if (steps->size() > stats.max_depth) stats.max_depth = steps->size();

    // --- materialize fresh nodes for the extension ----------------------
    AML_ASSERT(nodes.size() == current_plan.size(),
               "DPOR stack out of sync with plan");
    AML_ASSERT(steps->size() >= current_plan.size(),
               "execution shorter than its planned prefix");
    for (std::size_t k = nodes.size(); k < steps->size(); ++k) {
      const detail::DporStep& s = (*steps)[k];
      detail::DporNode node;
      node.runnable = s.runnable;
      node.pending = s.pending;
      node.chosen = s.picked;
      node.backtrack.push_back(s.picked);
      node.done.push_back(s.picked);
      node.sleep = s.sleep;
      node.prev = s.prev;
      node.prev_runnable = s.prev_runnable;
      node.preemptions_used = s.preemptions_used;
      nodes.push_back(std::move(node));
    }

    if (detail::note_execution(config, stats, ctx)) break;

    // --- race analysis: vector clocks over the executed path ------------
    //
    // kidx[i] = 1-based index of step i within its process; clock_of[p] =
    // p's current clock. Scanning candidates for step j in descending order
    // while merging their clocks ensures a step already ordered before j
    // through an intermediate dependent step is not misreported as a race.
    const std::size_t n = steps->size();
    std::vector<std::uint32_t> kidx(n, 0);
    {
      std::vector<std::uint32_t> count(config.nprocs, 0);
      for (std::size_t i = 0; i < n; ++i) {
        kidx[i] = ++count[(*steps)[i].picked];
      }
    }
    std::vector<std::vector<std::uint32_t>> step_clock(
        n, std::vector<std::uint32_t>(config.nprocs, 0));
    std::vector<std::vector<std::uint32_t>> clock_of(
        config.nprocs, std::vector<std::uint32_t>(config.nprocs, 0));
    for (std::size_t j = 0; j < n; ++j) {
      const Pid q = (*steps)[j].picked;
      const model::Footprint& fj = (*steps)[j].pending[q];
      std::vector<std::uint32_t> cv = clock_of[q];
      for (std::size_t i = j; i-- > 0;) {
        const Pid p = (*steps)[i].picked;
        if (p == q) continue;
        const model::Footprint& fi = (*steps)[i].pending[p];
        if (!model::footprints_dependent(fi, fj)) continue;
        if (kidx[i] <= cv[p]) continue;  // already happens-before j
        // Race: steps i and j are dependent and concurrent. Plant a
        // backtrack point at the pre-state of i.
        stats.races_seen++;
        detail::DporNode& node = nodes[i];
        const auto plant = [&](Pid cand) {
          if (detail::contains(node.backtrack, cand)) return;
          if (node.sleep.find(cand) != node.sleep.end()) return;
          node.backtrack.push_back(cand);
        };
        if (detail::contains(node.runnable, q)) {
          plant(q);
        } else {
          for (Pid cand : node.runnable) plant(cand);
        }
        for (std::size_t p2 = 0; p2 < cv.size(); ++p2) {
          cv[p2] = std::max(cv[p2], step_clock[i][p2]);
        }
      }
      cv[q] = kidx[j];
      step_clock[j] = cv;
      clock_of[q] = std::move(cv);
    }

    // --- DFS: pick the deepest node with an admissible branch ------------
    bool advanced = false;
    while (!nodes.empty()) {
      detail::DporNode& node = nodes.back();
      // Returning to this node: its explored branch is exhausted and goes
      // to sleep for the remaining siblings.
      if (node.chosen != model::kNoPid) {
        node.sleep.emplace(node.chosen, node.pending[node.chosen]);
        node.chosen = model::kNoPid;
      }
      Pid next = model::kNoPid;
      for (std::size_t idx = 0; idx < node.backtrack.size(); ++idx) {
        const Pid cand = node.backtrack[idx];
        if (detail::contains(node.done, cand)) continue;
        if (node.sleep.find(cand) != node.sleep.end()) {
          stats.sleep_skips++;
          node.done.push_back(cand);
          continue;
        }
        std::uint32_t cost = node.preemptions_used;
        if (node.prev_runnable && cand != node.prev) cost++;
        if (cost > config.preemption_bound) {
          // Over budget: abandon (this is the bounded-DPOR incompleteness).
          node.done.push_back(cand);
          continue;
        }
        next = cand;
        break;
      }
      if (next != model::kNoPid) {
        node.done.push_back(next);
        node.chosen = next;
        plan.assign(nodes.size(), 0);
        for (std::size_t k = 0; k < nodes.size(); ++k) {
          plan[k] = nodes[k].chosen;
        }
        advanced = true;
        break;
      }
      nodes.pop_back();
    }
    if (!advanced) break;  // tree exhausted
    plan.resize(nodes.size());
  }
  return stats;
}

}  // namespace detail

/// Enumerate executions of the workload built by `factory`. The factory is
/// invoked once per execution with a fresh ExecutionContext whose scheduler
/// policy is the explorer's replay policy; it must build a fresh world
/// (model + locks), install the hook, call ctx.run(...), and verify
/// invariants — via ExecutionContext::fail() and/or gtest EXPECTs.
inline ExploreStats explore(
    const ExploreConfig& config,
    const std::function<void(ExecutionContext&)>& factory) {
  if (!config.replay_choices.empty()) {
    return detail::explore_replay(config, factory);
  }
  switch (config.reduction) {
    case Reduction::kDpor:
      return detail::explore_dpor(config, factory);
    case Reduction::kNone:
      break;
  }
  return detail::explore_unreduced(config, factory);
}

}  // namespace aml::sched
