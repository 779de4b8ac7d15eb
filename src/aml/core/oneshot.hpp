// The one-shot abortable lock of Section 3 (Figure 1), the main building
// block of the paper: an array-based queue lock (F&A on Tail, local spin on
// go[i]) augmented with the Tree of Section 4 to skip queue slots abandoned
// by aborting processes.
//
//   Enter  (Alg 3.1): i <- F&A(Tail, 1); spin on go[i], watching the abort
//                     signal; on hand-off write Head <- i and enter the CS.
//   Exit   (Alg 3.2): LastExited <- Head; SignalNext(Head).
//   Abort  (Alg 3.3): Tree.Remove(i); if Head == LastExited, the exiting
//                     process' FindNext may have crossed paths with our
//                     Remove, so assume responsibility for its hand-off and
//                     SignalNext(Head).
//   SignalNext (Alg 3.4): j <- Tree.FindNext(head); unless j is TOP/BOTTOM,
//                     go[j] <- true.
//
// Properties (Theorem 2): mutual exclusion, starvation freedom, bounded
// exit, bounded abort, FCFS; O(log_W A_i) RMRs per passage where A_i is the
// number of aborts during the passage (O(1) if none), O(log_W A_t) per
// aborted attempt.
//
// Each process may attempt to acquire a given instance at most once (the
// long-lived transformation of Section 6 lifts this restriction).
//
// One body serves both of the paper's variants. The `Wake` policy selects
// the only two steps in which they differ — where a queued process spins
// (line 2) and how SignalNext wakes it (line 19):
//   CcWake  (default) — the CC algorithm as printed: spin on go[i], which a
//           CC cache keeps local; SignalNext's go[j] <- 1 is the wake.
//   DsmWake (Section 3, "DSM variant") — a process' dynamically-assigned go
//           slot cannot be guaranteed local in DSM, so the process publishes
//           a process-local spin bit in announce[i] and spins on that;
//           SignalNext writes go[j] = 1, reads announce[j], and sets the
//           published spin bit. OneShotLockDsm names this instantiation.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "aml/model/concepts.hpp"
#include "aml/model/ordered.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"
#include "aml/core/tree.hpp"

namespace aml::core {

/// Slot value reported for attempts that never received a queue slot (e.g.
/// an abort during the long-lived lock's spin-node wait, before joining an
/// instance).
inline constexpr std::uint32_t kNoSlot = obs::kNoSlot;

/// Which FindNext implementation SignalNext uses.
enum class Find : std::uint8_t {
  kPlain,     ///< Algorithm 4.1 — O(log_W N) ascent
  kAdaptive,  ///< Algorithm 4.3 — O(log_W A) ascent with sidestep
};

/// Result of OneShotLock::enter. `slot` is the queue index the doorway F&A
/// assigned (exposed for tests and for FCFS auditing).
struct EnterResult {
  bool acquired = false;
  std::uint32_t slot = 0;
};

/// Wake policies of OneShotLock (see the header comment). CcWake adds no
/// word and no step; DsmWake requires the space to provide
/// alloc_owned(owner, n, init) — the per-process spin bits are local to
/// their owner, everything else is placed like the CC variant.
struct CcWake {};
struct DsmWake {};

namespace detail {
/// LastExited's initial value: the paper's -1 ("no process exited yet").
inline constexpr std::uint64_t kNoneExited = ~std::uint64_t{0};
}  // namespace detail

/// Test-only fault injection: reproduce the hand-off bugs the analysis layer
/// exists to catch. Every flag defaults to off (correct algorithm); a test
/// switches one on to seed a deliberately broken protocol whose failure only
/// manifests under specific interleavings (see tests/analysis).
struct FaultInjection {
  /// exit() skips SignalNext entirely (unconditional lost hand-off).
  bool skip_exit_signal = false;
  /// abort_slot() skips the crossed-paths responsibility hand-off (Algorithm
  /// 3.3 line 15): the exiter's FindNext that returned TOP assumed the
  /// aborter would signal; nobody does — an interleaving-dependent lost
  /// wakeup.
  bool skip_abort_responsibility = false;
};

/// `Metrics` selects the observability sink (see aml/obs/metrics.hpp). The
/// default NullMetrics compiles every instrumentation point to nothing.
template <typename Space, typename Metrics = obs::NullMetrics,
          typename Wake = CcWake>
class OneShotLock {
  static constexpr bool kDsm = std::is_same_v<Wake, DsmWake>;
  struct Init {};

 public:
  using Word = typename Space::Word;
  using MetricsSink = Metrics;

  /// Under DsmWake this allocates one spin bit per slot index, i.e. for
  /// pids 0..n_slots-1 — the long-lived transformation's case.
  OneShotLock(Space& space, std::uint32_t n_slots, std::uint32_t w,
              Find find = Find::kAdaptive)
      : OneShotLock(Init{}, space, n_slots, w, n_slots, find) {}

  /// DsmWake with one spin bit for each of pids 0..nprocs-1.
  OneShotLock(Space& space, std::uint32_t n_slots, std::uint32_t w,
              Pid nprocs, Find find = Find::kAdaptive)
    requires kDsm
      : OneShotLock(Init{}, space, n_slots, w, nprocs, find) {}

  OneShotLock(const OneShotLock&) = delete;
  OneShotLock& operator=(const OneShotLock&) = delete;

  std::uint32_t capacity() const { return n_; }
  const Tree<Space>& tree() const { return tree_; }
  Tree<Space>& tree() { return tree_; }

  /// Bind an observability sink (no-op for the NullMetrics default).
  void set_metrics(Metrics* sink) { obs_.bind(sink); }

  /// Algorithm 3.1. Blocks until the lock is acquired or the abort signal is
  /// observed while waiting. The returned slot is valid in both cases.
  EnterResult enter(Pid self, const std::atomic<bool>* abort_signal) {
    const std::uint64_t i = space_.faa(self, *tail_, 1);  // doorway (line 1)
    AML_ASSERT(i < n_, "one-shot lock capacity exceeded (re-entry?)");
    const std::uint32_t slot = static_cast<std::uint32_t>(i);
    obs_.on_enter(self, slot);
    Word* spin = go_[slot];
    bool granted = false;
    if constexpr (kDsm) {
      // Publish the local spin bit, then check go[i]; the signaller writes
      // go[i] before reading announce[i], so one side always sees the
      // other. This is a Dekker (store-buffering) pattern: both the announce
      // write / go read here and the go write / announce read in
      // signal_next MUST stay seq_cst — acquire/release alone permits the
      // r1=0, r2=0 outcome (both sides miss each other) and the grant is
      // lost.
      space_.write(self, *dsm_.announce[slot], self);
      granted = space_.read(self, *go_[slot]) != 0;
      spin = dsm_.spin[self];
    }
    if (!granted) {
      // Acquire side of the wake (line 2): leaving the spin makes
      // everything the signaller did before its release store visible (its
      // CS, Head, LastExited). CcWake spins on go[i], DsmWake on its bit:
      // AML_X_EDGE(oneshot.grant) AML_X_EDGE(oneshot.dsm_wake)
      auto outcome = space_.wait(
          self, *spin,
          [this, self](std::uint64_t v) {
            obs_.on_spin_iteration(self);
            return v != 0;
          },
          abort_signal);
      if (outcome.stopped) {  // lines 3-5
        abort_slot(self, slot);
        obs_.on_abort(self, slot);
        return {false, slot};
      }
    }
    space_.write(self, *head_, i);  // line 6
    obs_.on_granted(self, slot);
    return {true, slot};
  }

  /// Algorithm 3.2. Must only be called by the current critical-section
  /// owner. Wait-free (bounded exit).
  void exit(Pid self) {
    const std::uint64_t head = space_.read(self, *head_);    // line 8
    obs_.on_exit(self, static_cast<std::uint32_t>(head));
    space_.write(self, *last_exited_, head);                 // line 9
    if (faults_.skip_exit_signal) return;                    // seeded bug
    signal_next(self, static_cast<std::uint32_t>(head));     // line 10
  }

  // --- introspection (tests / benches) ---------------------------------

  std::uint64_t peek_head(Pid self) { return space_.read(self, *head_); }
  std::uint64_t peek_tail(Pid self) { return space_.read(self, *tail_); }
  std::uint64_t peek_last_exited(Pid self) {
    return space_.read(self, *last_exited_);
  }
  std::uint64_t peek_go(Pid self, std::uint32_t i) {
    return space_.read(self, *go_[i]);
  }

  // --- oracle probes (no gating, no accounting; scheduler-thread safe) --

  std::uint64_t probe_head() const { return space_.peek(*head_); }
  std::uint64_t probe_tail() const { return space_.peek(*tail_); }
  std::uint64_t probe_last_exited() const {
    return space_.peek(*last_exited_);
  }
  std::uint64_t probe_go(std::uint32_t i) const {
    return space_.peek(*go_[i]);
  }

  // --- recovery surface (aml::ipc owner-death recovery) -----------------
  //
  // A crashed process cannot finish its own passage; a recoverer drives it
  // through the same algorithm steps on the victim's behalf. These are the
  // exact bodies of the corresponding algorithm fragments, exposed so the
  // recoverer can resume from the phase the victim's journal recorded (see
  // aml/ipc/shm_lock.hpp). `self` is the *recoverer's* pid — it is doing
  // the memory operations.

  /// Finish a grant the victim was signalled for but never acknowledged:
  /// Algorithm 3.1 line 6. Idempotent — re-writing Head with the same slot
  /// is harmless if the victim already wrote it.
  void complete_grant(Pid self, std::uint32_t slot) {
    space_.write(self, *head_, slot);
    obs_.on_granted(self, slot);
  }

  /// Run the victim's abort (Algorithm 3.3) for a slot that was journalled
  /// but never granted. Counted as an abort in the bound sink, which is how
  /// recovered-as-aborted passages surface in aml::obs.
  void abort_on_behalf(Pid self, std::uint32_t slot) {
    abort_slot(self, slot);
    obs_.on_abort(self, slot);
  }

  /// Re-drive the hand-off from a known head (Algorithm 3.4) when the victim
  /// died mid-exit after writing LastExited: FindNext is idempotent (exit
  /// does not remove the head from the tree, so a re-run finds the same
  /// successor) and a duplicate go[j] <- 1 is absorbed.
  void resignal_from(Pid self, std::uint32_t head) {
    signal_next(self, head);
  }

  /// Seed a protocol bug (tests only — see FaultInjection).
  void inject_faults(const FaultInjection& faults) { faults_ = faults; }

  /// Test-only pokes bypassing the algorithm (oracle fire-tests). Only
  /// instantiable over spaces with poke() (the raw models).
  void debug_poke_tail(std::uint64_t v) { space_.poke(*tail_, v); }
  void debug_poke_go(std::uint32_t i, std::uint64_t v) {
    space_.poke(*go_[i], v);
  }

 private:
  /// announce[i]'s initial value: no spin bit published yet.
  static constexpr std::uint64_t kNoAnnounce = ~std::uint64_t{0};

  /// DsmWake's words; CcWake stores nothing in their place.
  struct DsmWords {
    std::vector<Word*> announce;
    std::vector<Word*> spin;  ///< spin[p] is local to process p
  };
  struct NoWords {};

  OneShotLock(Init, Space& space, std::uint32_t n_slots, std::uint32_t w,
              Pid nprocs, Find find)
      : space_(space), n_(n_slots), find_(find), tree_(space, n_slots, w) {
    tail_ = space_.alloc(1, 0);
    head_ = space_.alloc(1, 0);
    last_exited_ = space_.alloc(1, detail::kNoneExited);
    go_.reserve(n_slots);
    for (std::uint32_t i = 0; i < n_slots; ++i) {
      go_.push_back(space_.alloc(1, i == 0 ? 1 : 0));  // go = [1, 0, ..., 0]
      if constexpr (kDsm) {
        dsm_.announce.push_back(space_.alloc(1, kNoAnnounce));
      }
    }
    if constexpr (kDsm) {
      dsm_.spin.reserve(nprocs);
      for (Pid p = 0; p < nprocs; ++p) {
        dsm_.spin.push_back(space_.alloc_owned(p, 1, 0));  // local spin bit
      }
    }
  }

  /// Algorithm 3.3.
  void abort_slot(Pid self, std::uint32_t i) {
    tree_.remove(self, i);                                       // line 11
    const std::uint64_t head = space_.read(self, *head_);        // line 12
    const std::uint64_t last = space_.read(self, *last_exited_);
    if (head != last) return;                                    // lines 13-14
    if (faults_.skip_abort_responsibility) return;  // seeded bug (tests)
    // Process `head` may be mid-exit and its FindNext may have crossed paths
    // with our Remove; assume responsibility for its hand-off.
    signal_next(self, static_cast<std::uint32_t>(head));         // line 15
  }

  /// Algorithm 3.4.
  void signal_next(Pid self, std::uint32_t head) {
    obs_.on_findnext(self);
    const FindResult r = (find_ == Find::kPlain)
                             ? tree_.find_next(self, head)
                             : tree_.adaptive_find_next(self, head);
    if (!r.is_found()) return;  // TOP: an aborter took responsibility;
                                // BOTTOM: no successor exists (lines 17-18)
    if constexpr (kDsm) {
      // Dekker pair with enter's announce-write/go-read: seq_cst required on
      // both the go write and the announce read (see enter).
      space_.write(self, *go_[r.slot], 1);
      const std::uint64_t s = space_.read(self, *dsm_.announce[r.slot]);
      if (s == kNoAnnounce) return;  // the grantee will see go[j] itself
      // Final wake of the published spin bit: release suffices — the
      // grantee's spin acquires it, and nothing is read after this store.
      model::ord::write_rel(space_, self,  // AML_V_EDGE(oneshot.dsm_wake)
                            *dsm_.spin[static_cast<Pid>(s)], 1);
    } else {
      // Release suffices for the grant store: no other protocol word is
      // read after it, and the crossed-paths race (Remove vs FindNext) is
      // decided entirely by the seq_cst tree CASes and Head/LastExited
      // accesses that precede it. The successor's spin acquires it.
      model::ord::write_rel(space_, self, *go_[r.slot], 1);  // AML_V_EDGE(oneshot.grant), line 19
    }
  }

  Space& space_;
  std::uint32_t n_;
  Find find_;
  Tree<Space> tree_;
  Word* tail_ = nullptr;
  Word* head_ = nullptr;
  Word* last_exited_ = nullptr;
  std::vector<Word*> go_;
  FaultInjection faults_;  ///< all-off by default (correct algorithm)
  [[no_unique_address]] obs::SinkHandle<Metrics> obs_;
  [[no_unique_address]] std::conditional_t<kDsm, DsmWords, NoWords> dsm_;
};

/// The DSM variant (Section 3): the one body with the DsmWake policy.
template <typename Space, typename Metrics = obs::NullMetrics>
using OneShotLockDsm = OneShotLock<Space, Metrics, DsmWake>;

}  // namespace aml::core
