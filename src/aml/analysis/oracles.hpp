// Invariant oracles for the paper's algorithms (aml::analysis).
//
// Each oracle wraps one shared structure and exposes a read-only probe
// suitable for StepScheduler::add_invariant_probe(): the scheduler calls it
// at every decision point (every process suspended), so the oracle sees every
// reachable intermediate state of every explored execution. A probe returns
// an empty string while the invariant holds and a description of the first
// violation otherwise; the scheduler records it in Result::violation together
// with the step number, and the explorer folds it into a replayable trace.
//
// The oracles are *stepwise*: several checks compare against the state seen
// at the previous probe and rely on the at-most-one-shared-memory-step
// granularity the scheduler guarantees between probes (e.g. the LockDesc
// refcount may change by at most 1 between probes unless the instance was
// switched). They are therefore only meaningful under the scheduled models —
// under free-running native threads the snapshots would tear.
//
// All probes use the models' peek() paths: no gating, no RMR accounting, no
// effect on the schedule being explored.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "aml/core/oneshot.hpp"
#include "aml/core/tree.hpp"
#include "aml/sched/scheduler.hpp"

namespace aml::analysis {

using model::Pid;

/// Convenience bundle: collects probes and registers them all with a
/// scheduler, so a workload can do `oracles.install(ctx.scheduler())`.
class OracleSet {
 public:
  void add(std::function<std::string()> probe) {
    probes_.push_back(std::move(probe));
  }

  template <typename Oracle>
  void watch(Oracle& oracle) {
    add([&oracle] { return oracle.check(); });
  }

  void install(sched::StepScheduler& scheduler) const {
    for (const auto& probe : probes_) scheduler.add_invariant_probe(probe);
  }

 private:
  std::vector<std::function<std::string()>> probes_;
};

// --- Tree (Section 4) ------------------------------------------------------

/// Invariants of core::Tree:
///  T1 (monotone)      — node bits are only ever set (Remove uses F&A with a
///                       fresh bit); a cleared bit means lost state.
///  T2 (parent/child)  — a set bit in a node at level >= 2 implies the child
///                       subtree it covers is EMPTY (all-ones): Remove only
///                       ascends after the child word filled up.
///  T3 (live set)      — optional: a set leaf-level bit for slot s implies
///                       the workload marked s removable (abandoned). Wire
///                       with set_removable().
template <typename Space>
class TreeOracle {
 public:
  explicit TreeOracle(const core::Tree<Space>& tree) : tree_(tree) {
    const auto& geo = tree_.geometry();
    shadow_.resize(geo.height() + 1);
    for (std::uint32_t lvl = 1; lvl <= geo.height(); ++lvl) {
      shadow_[lvl].resize(geo.stored_width(lvl));
      for (std::uint64_t idx = 0; idx < shadow_[lvl].size(); ++idx) {
        shadow_[lvl][idx] = geo.initial_value(lvl, idx);
      }
    }
  }

  /// `removable(s)` must return true iff the workload has allowed slot `s`
  /// to be abandoned (its process aborted or may abort).
  void set_removable(std::function<bool(std::uint32_t)> removable) {
    removable_ = std::move(removable);
  }

  std::string check() {
    const auto& geo = tree_.geometry();
    const std::uint32_t h = geo.height();
    const std::uint32_t w = geo.w();
    for (std::uint32_t lvl = 1; lvl <= h; ++lvl) {
      const std::uint64_t width = geo.stored_width(lvl);
      for (std::uint64_t idx = 0; idx < width; ++idx) {
        const std::uint64_t v = tree_.peek_node(lvl, idx);
        std::uint64_t& last = shadow_[lvl][idx];
        if ((last & ~v) != 0) {
          return describe("T1: tree bit cleared", lvl, idx, last, v);
        }
        last = v;
        if (lvl >= 2) {
          for (std::uint32_t b = 0; b < w; ++b) {
            if (((v >> b) & 1) == 0) continue;
            const std::uint64_t child = tree_.peek_node(lvl - 1, idx * w + b);
            if (child != tree_.empty_value()) {
              return describe("T2: bit set over a non-EMPTY child subtree",
                              lvl, idx, child, v);
            }
          }
        }
        if (lvl == 1 && removable_) {
          for (std::uint32_t b = 0; b < w; ++b) {
            const std::uint64_t slot = idx * w + b;
            if (slot >= geo.n_slots()) break;
            if (((v >> b) & 1) != 0 && (shadow_init(idx) >> b & 1) == 0 &&
                !removable_(static_cast<std::uint32_t>(slot))) {
              std::ostringstream os;
              os << "TreeOracle T3: slot " << slot
                 << " marked abandoned but not removable";
              return os.str();
            }
          }
        }
      }
    }
    return {};
  }

 private:
  std::uint64_t shadow_init(std::uint64_t idx) const {
    return tree_.geometry().initial_value(1, idx);
  }

  static std::string describe(const char* what, std::uint32_t lvl,
                              std::uint64_t idx, std::uint64_t was,
                              std::uint64_t now) {
    std::ostringstream os;
    os << "TreeOracle " << what << " at node (lvl=" << lvl << ", idx=" << idx
       << "): was 0x" << std::hex << was << ", now 0x" << now;
    return os.str();
  }

  const core::Tree<Space>& tree_;
  std::vector<std::vector<std::uint64_t>> shadow_;
  std::function<bool(std::uint32_t)> removable_;
};

// --- One-shot queue lock (Section 3) ---------------------------------------

/// Invariants of core::OneShotLock:
///  Q1 — Tail never exceeds the capacity (each process enters at most once).
///  Q2 — Tail, Head and the go[] bits are monotone; LastExited is monotone
///        once it leaves its NONE sentinel and never returns to it.
///  Q3 — Head only ever names an assigned slot (Head > 0 implies
///        Head < Tail), and LastExited trails Head: a process writes
///        LastExited only with the Head value of its own completed critical
///        section.
///  Q4 — go words are boolean.
template <typename Lock>
class OneShotOracle {
 public:
  explicit OneShotOracle(const Lock& lock)
      : lock_(lock), go_shadow_(lock.capacity(), 0) {
    go_shadow_[0] = 1;  // go = [1, 0, ..., 0]
  }

  std::string check() {
    const std::uint64_t tail = lock_.probe_tail();
    const std::uint64_t head = lock_.probe_head();
    const std::uint64_t last = lock_.probe_last_exited();
    const std::uint32_t cap = lock_.capacity();
    if (tail > cap) return fail("Q1: Tail exceeds capacity", tail);
    if (tail < tail_) return fail("Q2: Tail decreased", tail);
    if (head < head_) return fail("Q2: Head decreased", head);
    if (head > 0 && head >= tail) {
      return fail("Q3: Head names an unassigned slot", head);
    }
    if (last != core::detail::kNoneExited) {
      if (last > head) return fail("Q3: LastExited ahead of Head", last);
      if (last_ != core::detail::kNoneExited && last < last_) {
        return fail("Q2: LastExited decreased", last);
      }
    } else if (last_ != core::detail::kNoneExited) {
      return fail("Q2: LastExited reset to NONE", last);
    }
    for (std::uint32_t i = 0; i < cap; ++i) {
      const std::uint64_t g = lock_.probe_go(i);
      if (g > 1) return fail("Q4: go word non-boolean", g);
      if (g < go_shadow_[i]) return fail("Q2: go bit cleared", i);
      go_shadow_[i] = g;
    }
    tail_ = tail;
    head_ = head;
    last_ = last;
    return {};
  }

 private:
  static std::string fail(const char* what, std::uint64_t v) {
    std::ostringstream os;
    os << "OneShotOracle " << what << " (value " << v << ")";
    return os.str();
  }

  const Lock& lock_;
  std::uint64_t tail_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t last_ = core::detail::kNoneExited;
  std::vector<std::uint64_t> go_shadow_;
};

// --- Long-lived LockDesc (Section 6) ---------------------------------------

/// Invariants of core::LongLivedLock's packed LockDesc word and the
/// per-instance version words:
///  L1 — Refcnt never exceeds N, Lock always names one of the N+1 instances,
///        Spn always names an allocated spin node.
///  L2 — between two probes (at most one shared-memory step apart) either
///        the installed (Lock, Spn) pair is unchanged and Refcnt moved by at
///        most 1, or the pair was switched by Cleanup's CAS — which is only
///        enabled at Refcnt == 0 and installs a fresh pair with Refcnt == 0.
///  L3 — every instance's space version only steps forward:
///        v' ∈ {v, (v+1) & mask} (recycler bumps are exclusive).
template <typename Lock>
class LockDescOracle {
 public:
  explicit LockDescOracle(const Lock& lock)
      : lock_(lock),
        prev_(lock.probe_desc()),
        version_shadow_(lock.instance_count(), 0) {
    for (std::uint32_t i = 0; i < lock_.instance_count(); ++i) {
      version_shadow_[i] = lock_.probe_space_version(i);
    }
  }

  std::string check() {
    const auto d = lock_.probe_desc();
    const std::uint32_t nprocs = lock_.config().nprocs;
    if (d.refcnt > nprocs) return fail("L1: Refcnt exceeds N", d.refcnt);
    if (d.lock >= lock_.instance_count()) {
      return fail("L1: Lock names no instance", d.lock);
    }
    if (d.spn >= lock_.spin_nodes()) {
      return fail("L1: Spn names no spin node", d.spn);
    }
    const bool switched = d.lock != prev_.lock || d.spn != prev_.spn;
    if (switched) {
      if (prev_.refcnt != 0) {
        return fail("L2: instance switched while Refcnt nonzero",
                    prev_.refcnt);
      }
      if (d.refcnt != 0) {
        return fail("L2: switch installed nonzero Refcnt", d.refcnt);
      }
      if (d.lock == prev_.lock || d.spn == prev_.spn) {
        return fail("L2: switch must replace both Lock and Spn", d.lock);
      }
    } else {
      const std::uint32_t hi = d.refcnt > prev_.refcnt ? d.refcnt : prev_.refcnt;
      const std::uint32_t lo = d.refcnt > prev_.refcnt ? prev_.refcnt : d.refcnt;
      if (hi - lo > 1) {
        return fail("L2: Refcnt jumped by more than 1", d.refcnt);
      }
    }
    const std::uint64_t mask = lock_.probe_space_version_mask();
    for (std::uint32_t i = 0; i < lock_.instance_count(); ++i) {
      const std::uint64_t v = lock_.probe_space_version(i);
      const std::uint64_t was = version_shadow_[i];
      if (v != was && v != ((was + 1) & mask)) {
        return fail("L3: instance version skipped", v);
      }
      version_shadow_[i] = v;
    }
    prev_ = d;
    return {};
  }

 private:
  static std::string fail(const char* what, std::uint64_t v) {
    std::ostringstream os;
    os << "LockDescOracle " << what << " (value " << v << ")";
    return os.str();
  }

  const Lock& lock_;
  typename Lock::DescView prev_;
  std::vector<std::uint64_t> version_shadow_;
};

// --- Lock table generations (aml::table resize) ----------------------------

/// Invariants of table::LockTable's two-generation resize protocol:
///  G1 — exactly one current generation, and it is the newest; epochs are
///        consecutive from 0.
///  G2 — a retired generation has no pinned passages and stays retired.
///  G3 — at most two generations are live (unretired) at any time: the
///        current one and the one it is draining.
/// Requires the table's debug_generations() snapshot; see the scheduling
/// caveat documented there.
template <typename Table>
class TableGenOracle {
 public:
  explicit TableGenOracle(const Table& table) : table_(table) {}

  std::string check() {
    const auto gens = table_.debug_generations();
    if (gens.empty()) return "TableGenOracle G1: no generations";
    std::uint32_t currents = 0;
    std::uint32_t unretired = 0;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      const auto& g = gens[i];
      if (g.epoch != i) return fail("G1: epochs not consecutive", g.epoch);
      if (g.is_current) {
        ++currents;
        if (i + 1 != gens.size()) {
          return fail("G1: current generation is not the newest", g.epoch);
        }
        if (g.retired) return fail("G2: current generation retired", g.epoch);
      }
      if (g.retired) {
        if (g.pins != 0) {
          return fail("G2: retired generation has pinned passages", g.pins);
        }
      } else {
        ++unretired;
        if (i < retired_floor_.size() && retired_floor_[i]) {
          return fail("G2: generation un-retired", g.epoch);
        }
      }
    }
    if (currents != 1) return fail("G1: current-generation count", currents);
    if (unretired > 2) return fail("G3: more than two live generations",
                                   unretired);
    retired_floor_.resize(gens.size(), false);
    for (std::size_t i = 0; i < gens.size(); ++i) {
      retired_floor_[i] = retired_floor_[i] || gens[i].retired;
    }
    return {};
  }

 private:
  static std::string fail(const char* what, std::uint64_t v) {
    std::ostringstream os;
    os << "TableGenOracle " << what << " (value " << v << ")";
    return os.str();
  }

  const Table& table_;
  std::vector<bool> retired_floor_;  ///< sticky: once retired, always
};

}  // namespace aml::analysis
