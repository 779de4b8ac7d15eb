// Named model-checking workloads shared by the analysis tests and the
// aml_replay tool (aml::analysis).
//
// A workload is a factory the explorer invokes once per execution: it builds
// a fresh world (model + lock), installs the scheduler hook, registers
// oracles, runs the process bodies and reports failures through
// ExecutionContext::fail(). Keeping them in a registry means a failure trace
// emitted by a test names a workload the standalone replay tool can rebuild
// byte-for-byte — the trace's choice sequence then reproduces the failing
// interleaving deterministically.
//
// The flagship entry is `oneshot-handoff-bug`: the one-shot queue lock with
// the abort-path responsibility hand-off deliberately disabled
// (FaultInjection::skip_abort_responsibility — Algorithm 3.3 line 15
// skipped). Three processes compete while a fourth delivers an abort signal
// to the middle one; in the buggy interleaving the exiting process signals
// the aborting slot (a wasted wake-up) and the aborter, who observes
// Head == LastExited and is therefore responsible for re-signalling, skips
// it — the third process sleeps forever. The abort signal is a gated
// model::Signal so DPOR sees the raise/observe race (a plain std::atomic
// store would have no footprint and the reduction could unsoundly prune the
// failing interleaving). `oneshot-dsm-handoff-bug`/`-clean` run the same
// body with the DSM variant (OneShotLockDsm) on the counting DSM model.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "aml/analysis/oracles.hpp"
#include "aml/baselines/jayanti.hpp"
#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/model/counting_dsm.hpp"
#include "aml/sched/explorer.hpp"
#include "aml/table/lock_table.hpp"

namespace aml::analysis {

struct WorkloadInfo {
  std::string name;
  std::string description;
  Pid nprocs = 0;
  std::function<void(sched::ExecutionContext&)> factory;
};

namespace detail {

/// Three competitors (p0..p2) on a 3-slot one-shot lock; p3 raises p1's
/// abort signal as its only (gated) step. `inject` disables the abort path's
/// responsibility hand-off. Failures reported: mutual-exclusion violation,
/// lost wake-up (a competitor parked forever; detected by the idle rescue),
/// and any oracle violation (folded in by ExecutionContext::run). `Wake`
/// selects the CC algorithm or the DSM variant (run on its own model).
template <typename Model, typename Wake>
void oneshot_handoff(sched::ExecutionContext& ctx, bool inject) {
  using Lock = core::OneShotLock<Model, obs::NullMetrics, Wake>;
  constexpr Pid kProcs = 4;
  constexpr std::uint32_t kSlots = 3;
  Model m(kProcs);
  m.set_hook(&ctx.scheduler());
  Lock lock(m, kSlots, /*w=*/4, core::Find::kPlain);  // spin bits: p0..p2
  if (inject) {
    core::FaultInjection faults;
    faults.skip_abort_responsibility = true;
    lock.inject_faults(faults);
  }

  OneShotOracle<Lock> queue_oracle(lock);
  TreeOracle<Model> tree_oracle(lock.tree());
  OracleSet oracles;
  oracles.watch(queue_oracle);
  oracles.watch(tree_oracle);
  oracles.install(ctx.scheduler());

  // One gated Signal per competitor. Only p1's is ever raised by the
  // workload (by p3); the others exist so the idle rescue can unpark a
  // starved competitor and let the execution terminate cleanly.
  model::Signal* sig[kSlots];
  for (std::uint32_t i = 0; i < kSlots; ++i) sig[i] = m.alloc_signal();

  std::atomic<bool> rescued{false};
  ctx.scheduler().set_idle_callback([&] {
    if (rescued.load(std::memory_order_relaxed)) return false;
    rescued.store(true, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      sig[i]->flag.store(true, std::memory_order_seq_cst);
    }
    return true;
  });

  std::atomic<int> in_cs{0};
  std::atomic<bool> overlap{false};
  typename Model::Word* scratch = m.alloc(1, 0);

  ctx.run([&](Pid p) {
    if (p == 3) {
      m.raise_signal(p, *sig[1]);
      return;
    }
    const auto r = lock.enter(p, &sig[p]->flag);
    if (r.acquired) {
      if (in_cs.fetch_add(1, std::memory_order_seq_cst) != 0) {
        overlap.store(true, std::memory_order_seq_cst);
      }
      m.read(p, *scratch);  // hold the critical section for one gated step
      in_cs.fetch_sub(1, std::memory_order_seq_cst);
      lock.exit(p);
    }
  });

  if (overlap.load(std::memory_order_relaxed)) {
    ctx.fail("mutual exclusion violated: two processes in the CS");
  }
  if (rescued.load(std::memory_order_relaxed)) {
    ctx.fail(
        "lost wake-up: a competitor was parked forever and had to be "
        "rescued by an injected abort signal");
  }
}

/// Two competitors on one key of a single-stripe LockTable; p2 raises p1's
/// abort signal (a gated step) and then grows the table to two stripes. p1
/// retries after an abort, so its second passage can bridge into the
/// new-generation stripe while p0 still holds the old one — the dual-acquire
/// bridge must preserve mutual exclusion across the epoch switch, with the
/// paper lock's abort and re-entry racing it. Failures: overlap in the CS, a
/// lost wake-up (idle rescue), a TableGenOracle violation, or the resize not
/// happening.
inline void table_resize_bridge(sched::ExecutionContext& ctx) {
  using Model = model::CountingCcModel;
  using Table = table::LockTable<Model>;
  constexpr Pid kProcs = 3;
  constexpr std::uint64_t kKey = 5;
  Model m(kProcs);
  m.set_hook(&ctx.scheduler());
  Table lock_table(m, {.max_threads = kProcs,
                       .stripes = 1,
                       .tree_width = 4,
                       .find = core::Find::kPlain});
  TableGenOracle<Table> gen_oracle(lock_table);
  ctx.scheduler().add_invariant_probe(
      [&gen_oracle] { return gen_oracle.check(); });

  // p1's abort signal (raised by p2) plus one rescue signal per competitor
  // so the idle rescue can unpark a starved process and terminate cleanly.
  model::Signal* abort_sig = m.alloc_signal();
  model::Signal* rescue[2] = {m.alloc_signal(), m.alloc_signal()};

  std::atomic<bool> rescued{false};
  ctx.scheduler().set_idle_callback([&] {
    if (rescued.load(std::memory_order_relaxed)) return false;
    rescued.store(true, std::memory_order_relaxed);
    abort_sig->flag.store(true, std::memory_order_seq_cst);
    for (auto* s : rescue) s->flag.store(true, std::memory_order_seq_cst);
    return true;
  });

  std::atomic<int> in_cs{0};
  std::atomic<bool> overlap{false};
  std::atomic<bool> resized{false};
  Model::Word* scratch = m.alloc(1, 0);

  const auto passage = [&](Pid p, const std::atomic<bool>* stop) {
    if (!lock_table.enter_hash(p, kKey, stop)) return false;
    if (in_cs.fetch_add(1, std::memory_order_seq_cst) != 0) {
      overlap.store(true, std::memory_order_seq_cst);
    }
    m.read(p, *scratch);  // hold the critical section for one gated step
    in_cs.fetch_sub(1, std::memory_order_seq_cst);
    lock_table.exit_hash(p, kKey);
    return true;
  };

  ctx.run([&](Pid p) {
    if (p == 2) {
      // A full passage first: it races the others' passages on the old
      // stripe, and leaves that stripe with a completed passage's state
      // before the resize.
      passage(2, nullptr);
      m.raise_signal(p, *abort_sig);
      resized.store(lock_table.resize(2), std::memory_order_seq_cst);
      return;
    }
    if (p == 0) {
      passage(0, &rescue[0]->flag);
      return;
    }
    // p1: first attempt may abort on p2's signal; the retry may cross the
    // epoch switch and bridge both generations' stripes.
    if (!passage(1, &abort_sig->flag)) passage(1, &rescue[1]->flag);
  });

  if (overlap.load(std::memory_order_relaxed)) {
    ctx.fail("mutual exclusion violated: two processes in the CS");
  }
  if (rescued.load(std::memory_order_relaxed)) {
    ctx.fail("lost wake-up: a competitor was parked forever");
  }
  if (!resized.load(std::memory_order_relaxed)) {
    ctx.fail("resize(2) unexpectedly refused");
  }
  if (lock_table.epoch() != 1) {
    ctx.fail("resize(2) did not advance the epoch to 1");
  }
}

/// The amortized (Jayanti) lock's claim-CAS ABA window, made reachable at a
/// low preemption bound. Cast (5 processes): a *holder* (p0) that parks
/// inside its critical section on a gated word, so its kWaiting node walls
/// off the queue without costing the bound a preemption; an *abandoner*
/// (p1) queued behind the wall whose abort signal is raised mid-run; a
/// *re-aborter* (p2) with a pre-raised try-lock signal that abandons behind
/// p1, then — gated until after p1's abandonment — revives its node, walks
/// over p1's abandoned node (claiming and recycling it, splicing its own
/// prev past it), and abandons *again*; a *walker* (p3) queued behind p2;
/// and a *controller* (p4) whose gated writes sequence the above. The racy
/// window is p3's walk: it can read the abandoned p2-node's prev (naming
/// p1's node), get preempted across p2's entire revive-splice-reabandon,
/// and only then run its claim-CAS. A state-only CAS succeeds against the
/// second abandonment while splicing to the first's prev — putting p3 on
/// the recycled p1 node (two walkers on one position: a runaway walk or a
/// mutex violation). The epoch-versioned status word must make the stale
/// claim fail and re-observe. Everything except that one preemption is
/// block-release choreography, so the failing interleaving exists within
/// preemption bound 1. Failures: overlap in the CS, a lost wake-up (idle
/// rescue), a deadlock, or a runaway walk (the explorer's step budget).
inline void jayanti_abandon_epochs(sched::ExecutionContext& ctx) {
  using Model = model::CountingCcModel;
  constexpr Pid kProcs = 5;
  Model m(kProcs);
  m.set_hook(&ctx.scheduler());
  baselines::JayantiAbortableLock<Model> lock(m, kProcs);

  // The re-aborter's try-lock signal is raised before any process starts
  // (constant, so it is not a race DPOR needs to explore); the abandoner's
  // signal is raised by the controller (gated). The rescue signals let the
  // idle callback unpark a starved completer and surface a lost wake-up as
  // a clean failure instead of a hang.
  std::atomic<bool> raised{true};
  model::Signal* abort_sig = m.alloc_signal();
  model::Signal* rescue[2] = {m.alloc_signal(), m.alloc_signal()};

  // Block-release choreography (all gated words): the holder parks its
  // critical section on `cs_gate`; the re-aborter parks between its two
  // attempts on `revive_gate`; `abandoner_done` / `reaborter_done` hand the
  // baton back to the controller.
  Model::Word* cs_gate = m.alloc(1, 0);
  Model::Word* revive_gate = m.alloc(1, 0);
  Model::Word* abandoner_done = m.alloc(1, 0);
  Model::Word* reaborter_done = m.alloc(1, 0);

  std::atomic<bool> rescued{false};
  ctx.scheduler().set_idle_callback([&] {
    if (rescued.load(std::memory_order_relaxed)) return false;
    rescued.store(true, std::memory_order_relaxed);
    for (auto* s : rescue) s->flag.store(true, std::memory_order_seq_cst);
    return true;
  });

  std::atomic<int> in_cs{0};
  std::atomic<bool> overlap{false};
  Model::Word* scratch = m.alloc(1, 0);

  const auto is_set = [](std::uint64_t v) { return v != 0; };
  const auto attempt = [&](Pid p, const std::atomic<bool>* stop,
                           Model::Word* cs_wait) {
    if (!lock.enter(p, stop)) return false;
    if (in_cs.fetch_add(1, std::memory_order_seq_cst) != 0) {
      overlap.store(true, std::memory_order_seq_cst);
    }
    if (cs_wait != nullptr) {
      m.wait(p, *cs_wait, is_set, nullptr);  // park while holding (the wall)
    } else {
      m.read(p, *scratch);  // hold the critical section for one gated step
    }
    in_cs.fetch_sub(1, std::memory_order_seq_cst);
    lock.exit(p);
    return true;
  };

  ctx.run([&](Pid p) {
    switch (p) {
      case 0:  // holder: walls the queue until the controller releases it
        attempt(0, &rescue[0]->flag, cs_gate);
        break;
      case 1:  // abandoner: aborts mid-queue when the controller raises it
        attempt(1, &abort_sig->flag, nullptr);
        m.write(1, *abandoner_done, 1);
        break;
      case 2:  // re-aborter: abandon, park, then revive-and-reabandon
        attempt(2, &raised, nullptr);
        m.wait(2, *revive_gate, is_set, nullptr);
        attempt(2, &raised, nullptr);
        m.write(2, *reaborter_done, 1);
        break;
      case 3:  // walker: its prev-read/claim-CAS window is the race
        attempt(3, &rescue[1]->flag, nullptr);
        break;
      default:  // controller: force abandon, then release the revival
        m.raise_signal(4, *abort_sig);
        m.wait(4, *abandoner_done, is_set, nullptr);
        m.write(4, *revive_gate, 1);
        m.wait(4, *reaborter_done, is_set, nullptr);
        m.write(4, *cs_gate, 1);
        break;
    }
  });

  if (overlap.load(std::memory_order_relaxed)) {
    ctx.fail("mutual exclusion violated: two processes in the CS");
  }
  if (rescued.load(std::memory_order_relaxed)) {
    ctx.fail("lost wake-up: a competitor was parked forever");
  }
}

/// Crash-as-forced-abort: the model-checkable core of the aml::ipc
/// owner-death recovery hand-off (see aml/ipc/shm_lock.hpp). A process
/// cannot literally vanish mid-step under the gated scheduler, so the crash
/// is modeled as what recovery makes of it: the victim stops taking steps
/// while holding the CS (returns without exit) and a *recoverer executing
/// under its own pid* finishes the passage by running the victim's exit —
/// which is precisely what ShmStripeLockT::recover does (the victim pid in
/// the real protocol is only the journal being read; every memory operation
/// is the recoverer's own step, so pid-gating is faithful).
///
/// Choreography: p0 acquires first (p2/p3 are gated behind a p0_holding
/// word, p1 never enters, so p0 deterministically takes slot 0 and the
/// pre-set go[0] grants immediately), runs its CS, then "crashes" — it
/// publishes p0_holding and crashed and returns while still the holder. p1
/// waits on crashed, force-exits the dead holder's passage, then raises
/// p3's abort signal so the recovery hand-off races a live abort: p3's
/// Remove can cross paths with the forced exit's FindNext exactly as
/// Algorithm 3.3's responsibility rule anticipates. p2 runs a full passage
/// behind the recovery. Failures: CS overlap, a lost wake-up after the
/// forced exit (idle rescue), or any OneShot/Tree oracle violation.
inline void ipc_crash_recovery(sched::ExecutionContext& ctx) {
  using Model = model::CountingCcModel;
  constexpr Pid kProcs = 4;
  constexpr std::uint32_t kSlots = 3;
  Model m(kProcs);
  m.set_hook(&ctx.scheduler());
  core::OneShotLock<Model> lock(m, kSlots, /*w=*/4, core::Find::kPlain);

  OneShotOracle<core::OneShotLock<Model>> queue_oracle(lock);
  TreeOracle<Model> tree_oracle(lock.tree());
  OracleSet oracles;
  oracles.watch(queue_oracle);
  oracles.watch(tree_oracle);
  oracles.install(ctx.scheduler());

  model::Signal* sig0 = m.alloc_signal();
  model::Signal* sig2 = m.alloc_signal();
  model::Signal* sig3 = m.alloc_signal();  // raised by the recoverer (p1)

  std::atomic<bool> rescued{false};
  ctx.scheduler().set_idle_callback([&] {
    if (rescued.load(std::memory_order_relaxed)) return false;
    rescued.store(true, std::memory_order_relaxed);
    sig0->flag.store(true, std::memory_order_seq_cst);
    sig2->flag.store(true, std::memory_order_seq_cst);
    sig3->flag.store(true, std::memory_order_seq_cst);
    return true;
  });

  std::atomic<int> in_cs{0};
  std::atomic<bool> overlap{false};
  Model::Word* scratch = m.alloc(1, 0);
  Model::Word* p0_holding = m.alloc(1, 0);
  Model::Word* crashed = m.alloc(1, 0);

  auto cs = [&](Pid p) {
    if (in_cs.fetch_add(1, std::memory_order_seq_cst) != 0) {
      overlap.store(true, std::memory_order_seq_cst);
    }
    m.read(p, *scratch);  // hold the CS for one gated step
    in_cs.fetch_sub(1, std::memory_order_seq_cst);
  };

  ctx.run([&](Pid p) {
    switch (p) {
      case 0: {  // the victim: acquires, then crashes while holding
        const auto r = lock.enter(p, &sig0->flag);
        AML_ASSERT(r.acquired, "slot 0 is pre-granted");
        cs(p);  // leaves in_cs before "dying": a dead holder occupies no CS
        m.write(p, *p0_holding, 1);
        m.write(p, *crashed, 1);
        return;  // no exit — the crash
      }
      case 1: {  // the recoverer: forced exit on the victim's behalf
        m.wait(p, *crashed, [](std::uint64_t v) { return v != 0; }, nullptr);
        lock.exit(p);  // ShmStripeLockT::recover's kHolding arm
        m.raise_signal(p, *sig3);
        return;
      }
      case 2: {  // a survivor taking a full passage behind the recovery
        m.wait(p, *p0_holding, [](std::uint64_t v) { return v != 0; },
               nullptr);
        const auto r = lock.enter(p, &sig2->flag);
        if (r.acquired) {
          cs(p);
          lock.exit(p);
        }
        return;
      }
      case 3: {  // a survivor whose abort races the recovery hand-off
        m.wait(p, *p0_holding, [](std::uint64_t v) { return v != 0; },
               nullptr);
        const auto r = lock.enter(p, &sig3->flag);
        if (r.acquired) {
          cs(p);
          lock.exit(p);
        }
        return;
      }
      default:
        return;
    }
  });

  if (overlap.load(std::memory_order_relaxed)) {
    ctx.fail("mutual exclusion violated: two processes in the CS");
  }
  if (rescued.load(std::memory_order_relaxed)) {
    ctx.fail(
        "lost wake-up after the forced exit: a survivor was parked forever "
        "and had to be rescued");
  }
}

/// Death at the recoverable F&A (see aml/ipc/shm_journal.hpp): the victim
/// announces an increment on the packed lock word, issues at most one
/// stamping CAS, and dies immediately after it — before any phase store can
/// record the outcome. A concurrent mutator runs its own stamped F&A with
/// the helping rule (credit the stamp it is about to overwrite into the
/// owner's landed word), and a recoverer then runs the post-mortem decision
/// predicate — word stamp first, landed credit second. Whether the victim's
/// CAS landed is decided purely by the schedule (a mutator CAS racing into
/// the window fails it), so DPOR explores death-before-landing,
/// death-after-landing, and every helping overlap in between. Failure: the
/// decision disagrees with the ground truth of whether the CAS landed — the
/// real recovery would then lose or double-apply the victim's increment.
inline void ipc_death_at_fa(sched::ExecutionContext& ctx) {
  using Model = model::CountingCcModel;
  constexpr Pid kProcs = 3;
  Model m(kProcs);
  m.set_hook(&ctx.scheduler());

  // The packed word: refcnt | (stamp_pid + 1) << 8 | stamp_seq << 16 —
  // stamp 0 means "never stamped", mirroring kNoStampPid.
  auto pack = [](std::uint64_t refcnt, Pid stamp_pid, std::uint64_t seq) {
    return refcnt | (static_cast<std::uint64_t>(stamp_pid) + 1) << 8 |
           seq << 16;
  };
  auto refcnt_of = [](std::uint64_t w) { return w & 0xFF; };
  auto stamp_of = [](std::uint64_t w) { return w >> 8; };  // (pid+1, seq)

  Model::Word* word = m.alloc(1, 0);
  Model::Word* ann = m.alloc(kProcs, 0);     // (seq << 1) | announced
  Model::Word* landed = m.alloc(kProcs, 0);  // highest seq proven landed
  Model::Word* dead = m.alloc(1, 0);

  std::atomic<bool> truth_landed{false};  // the victim's CAS actually won
  std::atomic<bool> decided_landed{false};

  // Helping rule: before overwriting a stamp, credit it to its owner — but
  // only while the owner's announcement still carries that sequence.
  auto help = [&](Pid p, std::uint64_t w) {
    const std::uint64_t stamp = stamp_of(w);
    if (stamp == 0) return;
    const Pid q = static_cast<Pid>((stamp & 0xFF) - 1);
    const std::uint64_t seq = stamp >> 8;
    if ((m.read(p, ann[q]) >> 1) != seq) return;
    const std::uint64_t cur = m.read(p, landed[q]);
    if (cur < seq) m.cas(p, landed[q], cur, seq);
  };

  ctx.run([&](Pid p) {
    switch (p) {
      case 0: {  // victim: announce, one CAS attempt, die on the next step
        m.write(p, ann[0], (1u << 1) | 1);  // seq 1, op announced
        const std::uint64_t w = m.read(p, *word);
        help(p, w);
        if (m.cas(p, *word, w, pack(refcnt_of(w) + 1, 0, 1))) {
          truth_landed.store(true, std::memory_order_relaxed);
        }
        m.write(p, *dead, 1);  // death: no self-credit, no phase store
        return;
      }
      case 1: {  // mutator: a full recoverable F&A over the same word
        m.write(p, ann[1], (1u << 1) | 1);
        for (;;) {
          const std::uint64_t w = m.read(p, *word);
          help(p, w);
          if (m.cas(p, *word, w, pack(refcnt_of(w) + 1, 1, 1))) break;
        }
        const std::uint64_t cur = m.read(p, landed[1]);
        if (cur < 1) m.cas(p, landed[1], cur, 1);  // winner self-credit
        return;
      }
      default: {  // recoverer: post-mortem decision, word stamp read first
        m.wait(p, *dead, [](std::uint64_t v) { return v != 0; }, nullptr);
        const std::uint64_t w = m.read(p, *word);
        help(p, w);
        const bool by_stamp = stamp_of(w) == (1u | (1u << 8));
        const bool by_credit = m.read(p, landed[0]) >= 1;
        decided_landed.store(by_stamp || by_credit,
                             std::memory_order_relaxed);
        return;
      }
    }
  });

  if (decided_landed.load(std::memory_order_relaxed) !=
      truth_landed.load(std::memory_order_relaxed)) {
    ctx.fail(
        "recovery decision disagrees with whether the victim's F&A landed: "
        "the increment would be lost or double-applied");
  }
}

/// The counting-model twin of the native fast path's justified relaxations
/// (tools/edges.toml). Two competitors make two passages each through the
/// long-lived lock while p2 raises p1's abort signal, so one execution set
/// crosses every new edge pair: each grant crosses oneshot.grant, each exit
/// retires the passage's instance and CASes in a fresh one with a fresh spin
/// node (longlived.spn_switch + spinpool.pin_publish), and the signal path
/// crosses core.abort_signal. The counting model runs every `model::ord`
/// relaxed op at full strength, so DPOR explores the orderings the native
/// acquire/release pairs must still contain — an algorithmic assumption
/// accidentally buried in a relaxation (a spin word that needed a Dekker, a
/// version check that needed the grant's payload) surfaces here as a CS
/// overlap, a LockDescOracle violation, or a lost wake-up, independent of
/// any hardware's kindness. The litmus suite (tests/litmus/) checks the
/// same edges from the native side; this workload checks them from the
/// algorithm side.
inline void longlived_edge_twin(sched::ExecutionContext& ctx) {
  using Model = model::CountingCcModel;
  using Lock = core::LongLivedLock<Model>;
  constexpr Pid kProcs = 3;
  constexpr Pid kCompetitors = 2;
  constexpr std::uint32_t kRounds = 2;  // >1: forces instance/spn switches
  Model m(kProcs);
  m.set_hook(&ctx.scheduler());
  Lock lock(m, {.nprocs = kCompetitors, .w = 4, .find = core::Find::kPlain});

  LockDescOracle<Lock> desc_oracle(lock);
  ctx.scheduler().add_invariant_probe(
      [&desc_oracle] { return desc_oracle.check(); });

  // One gated Signal per competitor: p2 raises p1's; p0's exists so the
  // idle rescue can unpark a starved competitor and terminate the run.
  model::Signal* sig[kCompetitors];
  for (std::uint32_t i = 0; i < kCompetitors; ++i) sig[i] = m.alloc_signal();

  std::atomic<bool> rescued{false};
  ctx.scheduler().set_idle_callback([&] {
    if (rescued.load(std::memory_order_relaxed)) return false;
    rescued.store(true, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kCompetitors; ++i) {
      sig[i]->flag.store(true, std::memory_order_seq_cst);
    }
    return true;
  });

  std::atomic<int> in_cs{0};
  std::atomic<bool> overlap{false};
  Model::Word* scratch = m.alloc(1, 0);

  ctx.run([&](Pid p) {
    if (p == 2) {
      m.raise_signal(p, *sig[1]);
      return;
    }
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      const auto r = lock.enter(p, &sig[p]->flag);
      if (!r.acquired) continue;  // aborted: re-enter next round
      if (in_cs.fetch_add(1, std::memory_order_seq_cst) != 0) {
        overlap.store(true, std::memory_order_seq_cst);
      }
      m.read(p, *scratch);  // hold the critical section for one gated step
      in_cs.fetch_sub(1, std::memory_order_seq_cst);
      lock.exit(p);
    }
  });

  if (overlap.load(std::memory_order_relaxed)) {
    ctx.fail("mutual exclusion violated: two processes in the CS");
  }
  if (rescued.load(std::memory_order_relaxed)) {
    ctx.fail(
        "lost wake-up: a competitor was parked forever and had to be "
        "rescued by an injected abort signal");
  }
}

}  // namespace detail

/// All registered workloads, by name.
inline const std::vector<WorkloadInfo>& workload_registry() {
  static const std::vector<WorkloadInfo> registry = {
      {
          "oneshot-handoff-bug",
          "one-shot lock, abort responsibility hand-off skipped (seeded "
          "bug): an abort racing an exit loses a wake-up",
          4,
          [](sched::ExecutionContext& ctx) {
            detail::oneshot_handoff<model::CountingCcModel, core::CcWake>(
                ctx, /*inject=*/true);
          },
      },
      {
          "oneshot-handoff-clean",
          "same workload with the hand-off intact: must pass under full "
          "exploration",
          4,
          [](sched::ExecutionContext& ctx) {
            detail::oneshot_handoff<model::CountingCcModel, core::CcWake>(
                ctx, /*inject=*/false);
          },
      },
      {
          "oneshot-dsm-handoff-bug",
          "the DSM variant (DsmWake, counting DSM model) with the abort "
          "responsibility hand-off skipped: the same lost wake-up",
          4,
          [](sched::ExecutionContext& ctx) {
            detail::oneshot_handoff<model::CountingDsmModel, core::DsmWake>(
                ctx, /*inject=*/true);
          },
      },
      {
          "oneshot-dsm-handoff-clean",
          "the DSM variant with the hand-off intact: must pass under full "
          "exploration",
          4,
          [](sched::ExecutionContext& ctx) {
            detail::oneshot_handoff<model::CountingDsmModel, core::DsmWake>(
                ctx, /*inject=*/false);
          },
      },
      {
          "jayanti-abandon-epochs",
          "amortized lock, choreographed abandonments at adjacent queue "
          "positions with a revive-and-reabandon between a walker's prev "
          "read and its claim-CAS: the epoch-versioned claim must not "
          "consume the second abandonment with the first's prev",
          5,
          [](sched::ExecutionContext& ctx) {
            detail::jayanti_abandon_epochs(ctx);
          },
      },
      {
          "ipc-crash-recovery",
          "crash-as-forced-abort: a holder dies in the CS and a recoverer "
          "finishes its passage under its own pid while a survivor's abort "
          "races the re-driven hand-off (the aml::ipc recovery core)",
          4,
          [](sched::ExecutionContext& ctx) {
            detail::ipc_crash_recovery(ctx);
          },
      },
      {
          "ipc-death-at-fa",
          "recoverable F&A: a victim dies right after its stamping CAS "
          "(landed or not, decided by the schedule) while a mutator's "
          "helping F&A overwrites the stamp; the recoverer's post-mortem "
          "decision must match the ground truth",
          3,
          [](sched::ExecutionContext& ctx) {
            detail::ipc_death_at_fa(ctx);
          },
      },
      {
          "longlived-edge-twin",
          "long-lived lock, repeat passages with a raced abort: the "
          "counting-model twin of the native relaxation's edge pairs "
          "(oneshot.grant, longlived.spn_switch, spinpool.pin_publish, "
          "core.abort_signal) explored at full strength",
          3,
          [](sched::ExecutionContext& ctx) {
            detail::longlived_edge_twin(ctx);
          },
      },
      {
          "table-resize-bridge",
          "LockTable grows mid-passage while an aborted passage retries; "
          "dual-acquire bridging must keep one key's passages exclusive",
          3,
          [](sched::ExecutionContext& ctx) {
            detail::table_resize_bridge(ctx);
          },
      },
  };
  return registry;
}

/// Look up a workload by name; nullptr if absent.
inline const WorkloadInfo* find_workload(const std::string& name) {
  for (const auto& w : workload_registry()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace aml::analysis
