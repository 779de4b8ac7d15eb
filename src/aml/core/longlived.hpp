// The long-lived abortable lock: the generic one-shot -> long-lived
// transformation of Section 6 (Figure 5) applied to the one-shot lock of
// Section 3, with the Section 6.2 memory-management schemes bounding space
// to O(N * s(N) + N^2) words.
//
// State is a single packed word
//
//      LockDesc = (Lock: instance index, Spn: spin-node index, Refcnt)
//
// manipulated with F&A (increment/decrement Refcnt while atomically
// snapshotting the tuple) and CAS (switch Lock/Spn when Refcnt drops to 0).
// The paper stores pointers; we store pool indices, which is what makes the
// tuple fit one real 64-bit word — functionally identical, since both
// instances and spin nodes come from pools fixed at construction.
//
//   Enter (Alg 6.1): if LockDesc.Spn equals the spin node saved by our
//     previous attempt, the one-shot instance we already used is still
//     installed; busy-wait on spn.go (O(1) RMRs) until it is switched out.
//     Then F&A LockDesc to join the current instance and run its Enter.
//   Exit (Alg 6.2): run the instance's Exit, then Cleanup.
//   Cleanup (Alg 6.3): F&A(-1); if we were last (refcnt was 1), prepare a
//     fresh instance (our held instance, advanced to its next incarnation)
//     and a fresh spin node, CAS-switch LockDesc, and on success set the
//     replaced spin node's go flag and hold the replaced instance for our
//     next allocation.
//
// The transformation preserves starvation freedom but not FCFS (Theorem 23);
// RMR cost per passage is within O(1) of the one-shot lock's (Claim 28).
//
// This is the one implementation of Algorithms 6.1-6.3. Its Journal policy
// says where the per-pid locals live and how LockDesc is updated: the
// default NullJournal adds no memory operation; ipc::ShmJournal
// (ipc/shm_journal.hpp) adds a seq_cst phase store before each step, shm
// locals, recoverable F&As at lines 62 and 70, a journaled switch at lines
// 72-77 and a head snapshot before Exit, so a survivor can re-run a dead
// process's Cleanup and switch (exec != owner).
//
// The Space template parameter selects the recycling scheme:
// VersionedSpace<M> (the paper's lazy reset; default) or EagerSpace<M> (the
// O(s(N))-per-reuse ablation).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "aml/model/ordered.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/core/spin_pool.hpp"
#include "aml/core/versioned_space.hpp"

namespace aml::core {

/// Passage phases, in passage order. The lock reports each to its Journal
/// *before* the step it names. An abort leaves kSpinWait for kIdle, or
/// kDoorway for kCleanup then kIdle.
enum Phase : std::uint64_t {
  kIdle = 0,      ///< no passage in progress
  kSpinWait = 1,  ///< maybe waiting on old_spn's node; LockDesc untouched
  kPreJoin = 2,   ///< join F&A announced/in flight
  kJoined = 3,    ///< refcnt incremented; `current` names the instance
  kDoorway = 4,   ///< inside one-shot enter
  kHolding = 5,   ///< in the critical section
  kReleasing = 6, ///< inside one-shot exit
  kCleanup = 7,   ///< release F&A / instance switch in flight
};

inline constexpr std::uint32_t kNoSpn = ~std::uint32_t{0};

/// LockDesc packing, low to high: Refcnt | Spn | Lock | StampPid | StampSeq.
/// The stamp names the last recoverable F&A that landed on the word (see
/// ipc/shm_journal.hpp); with zero stamp bits this is the paper's triple.
template <unsigned RefBits, unsigned SpnBits, unsigned LockBits,
          unsigned StampPidBits = 0, unsigned StampSeqBits = 0>
struct DescLayout {
  static_assert(RefBits + SpnBits + LockBits + StampPidBits + StampSeqBits ==
                64);
  static constexpr Pid kMaxProcs = (1u << RefBits) - 2;
  static constexpr std::uint32_t kNoStampPid = (1u << StampPidBits) - 1;
  static constexpr std::uint64_t kStampSeqMask = (1ull << StampSeqBits) - 1;

  std::uint32_t lock, spn, refcnt, stamp_pid, stamp_seq;

  static std::uint64_t pack(std::uint32_t lock, std::uint32_t spn,
                            std::uint32_t refcnt, std::uint32_t stamp_pid = 0,
                            std::uint64_t stamp_seq = 0) {
    std::uint64_t raw = refcnt | (std::uint64_t{spn} << kSpnAt) |
                        (std::uint64_t{lock} << kLockAt);
    if constexpr (StampPidBits != 0) {
      raw |= (std::uint64_t{stamp_pid} << kPidAt) |
             ((stamp_seq & kStampSeqMask) << kSeqAt);
    }
    return raw;
  }
  static DescLayout unpack(std::uint64_t raw) {
    return {get(raw, kLockAt, LockBits), get(raw, kSpnAt, SpnBits),
            get(raw, 0, RefBits), get(raw, kPidAt, StampPidBits),
            get(raw, kSeqAt, StampSeqBits)};
  }

 private:
  static constexpr unsigned kSpnAt = RefBits;
  static constexpr unsigned kLockAt = kSpnAt + SpnBits;
  static constexpr unsigned kPidAt = kLockAt + LockBits;
  static constexpr unsigned kSeqAt = kPidAt + StampPidBits;
  static std::uint32_t get(std::uint64_t raw, unsigned at, unsigned bits) {
    return bits == 0 ? 0
                     : static_cast<std::uint32_t>((raw >> at) &
                                                  (~0ull >> (64 - bits)));
  }
};

/// Outcome of a LockDesc F&A: the decoded pre-image and the word it left.
template <typename Desc>
struct DescRmw {
  Desc pre;
  std::uint64_t post;
};

/// The default journal: nothing recorded. Locals stay in process memory,
/// the F&As and the switch CAS are the plain ones, and every hook inlines to
/// nothing or to the plain operation. Hooks in call order: construction;
/// phases and the head snapshot; the F&As of lines 62 and 70; the pin and
/// the switch of lines 72-77.
struct NullJournal {
  using Desc = DescLayout<16, 32, 16>;
  using Rmw = DescRmw<Desc>;

  template <typename M>
  NullJournal(M&, Pid) {}

  /// The locals in process memory: one padded entry per pid, written by it.
  class Locals {
   public:
    Locals(const NullJournal&, Pid nprocs) : v_(nprocs) {
      for (Pid p = 0; p < nprocs; ++p) v_[p]->held = p + 1;
    }
    std::uint32_t old_spn(Pid p) const { return v_[p]->old_spn; }
    void set_old_spn(Pid p, std::uint32_t v) { v_[p]->old_spn = v; }
    std::uint32_t current(Pid p) const { return v_[p]->current; }
    void set_current(Pid p, std::uint32_t v) { v_[p]->current = v; }
    std::uint32_t held(Pid p) const { return v_[p]->held; }
    /// The switch landed: the replaced instance is our next allocation.
    void switched(Pid p, std::uint32_t prev) {
      v_[p]->held = prev;
      auto& n = v_[p]->switches;
      n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);  // AML_RELAXED(owner-only count; readers need no order)
    }
    std::uint64_t total_switches() const {
      std::uint64_t total = 0;
      for (const auto& l : v_) total += l->switches.load(std::memory_order_relaxed);  // AML_RELAXED(statistic, no ordering)
      return total;
    }

   private:
    struct Local {  // the held, old_spn and current of Alg 6.1-6.3
      std::uint32_t held = 0, old_spn = kNoSpn, current = 0;
      std::atomic<std::uint64_t> switches{0};  ///< landed switches
    };
    std::vector<pal::CachePadded<Local>> v_;
  };

  template <typename Lock, typename P>
  static void attach(std::uint32_t, Lock&, P&) {}

  static void phase(Pid, Phase) {}
  template <typename Lock>
  static void snap_head(Pid, Lock&) {}

  template <typename M, typename W>
  static Rmw join(M& mem, Pid exec, Pid, W& desc) {
    const std::uint64_t raw = mem.faa(exec, desc, 1);
    return {Desc::unpack(raw), raw + 1};
  }
  template <typename M, typename W>
  static Rmw release(M& mem, Pid exec, Pid, W& desc) {
    const std::uint64_t raw = mem.faa(exec, desc, ~std::uint64_t{0});
    return {Desc::unpack(raw), raw - 1};
  }

  template <typename M, typename P>
  static void publish_pin(M&, P& pool, Pid exec, Pid owner,
                          std::uint32_t spn) {
    pool.publish_pin(exec, owner, spn);
  }
  /// Returns the stamp sequence the switch CAS carries (none here).
  static std::uint64_t announce_switch(Pid, std::uint64_t) { return 0; }
  template <typename P>
  static std::uint32_t switch_node(P& pool, Pid exec, Pid owner,
                                   std::uint64_t) {
    const std::uint32_t spn = pool.select(exec, owner);
    pool.commit(exec, owner, spn);
    return spn;
  }
  template <typename P>
  static void abandon_switch(P& pool, Pid exec, Pid owner, std::uint32_t spn) {
    pool.unalloc(exec, owner, spn);
  }
  static void landed_switch(Pid, Pid, std::uint64_t, std::uint32_t) {}
  /// Retire the replaced spin node. Release suffices: the waiters in enter
  /// (and the owner's reclaim scan) acquire go == 1, importing the seq_cst
  /// install CAS; no protocol word is read after this.
  template <typename M, typename W>
  static void retire(M& mem, Pid exec, W& go) {
    model::ord::write_rel(mem, exec, go, 1);  // AML_V_EDGE(longlived.spn_switch), line 77
  }
};

static_assert(std::is_empty_v<NullJournal>,
              "the default journal must compile to nothing");

/// Template parameters:
///   M           — memory model;
///   SpacePolicy — instance recycling scheme: VersionedSpace (the paper's
///                 lazy reset; default) or EagerSpace (the O(s) ablation);
///   OneShotT    — the one-shot lock to transform: OneShotLock (the paper's
///                 CC algorithm; default) or OneShotLockDsm (the same body
///                 with the DsmWake policy). The paper's
///                 transformation is CC-only (its Spn busy-wait spins on a
///                 shared node); composing with the DSM variant is the
///                 Section 8 open problem, offered here for exploration —
///                 correct, but with remote spinning on the spin nodes;
///   Metrics     — observability sink (see aml/obs/metrics.hpp); the default
///                 NullMetrics compiles every instrumentation point away;
///   Journal     — NullJournal (default) or ipc::ShmJournal; see the header.
template <typename M, template <typename> class SpacePolicy = VersionedSpace,
          template <typename, typename, typename...> class OneShotT =
              OneShotLock,
          typename Metrics = obs::NullMetrics, typename Journal = NullJournal>
class LongLivedLock {
 public:
  using Space = SpacePolicy<M>;
  using MetricsSink = Metrics;
  using Desc = typename Journal::Desc;

  struct Config {
    Pid nprocs = 2;       ///< N: number of participating processes
    std::uint32_t w = 64; ///< W: word width for the tree and version fields
    Find find = Find::kAdaptive;
  };

  LongLivedLock(M& mem, Config config)
      : mem_(mem),
        config_(config),
        spin_pool_(mem, config.nprocs, config.nprocs + 1),
        journal_(mem, config.nprocs),
        locals_(journal_, config.nprocs) {
    AML_ASSERT(config.nprocs >= 1 && config.nprocs <= Desc::kMaxProcs,
               "nprocs out of range for LockDesc packing");
    // N+1 one-shot instances: one installed, one held by each process.
    instances_.reserve(config.nprocs + 1);
    for (Pid i = 0; i <= config.nprocs; ++i) {
      instances_.push_back(std::make_unique<Instance>(mem_, config_));
      journal_.attach(i, instances_.back()->lock, spin_pool_);
    }
    lock_desc_ = mem_.alloc(
        1, Desc::pack(0, spin_pool_.initial_node(), 0, Desc::kNoStampPid));
  }

  LongLivedLock(const LongLivedLock&) = delete;
  LongLivedLock& operator=(const LongLivedLock&) = delete;

  /// Bind an observability sink to this lock, its spin-node pool, and every
  /// one-shot instance (no-op for the NullMetrics default).
  void set_metrics(Metrics* sink) {
    obs_.bind(sink);
    spin_pool_.set_metrics(sink);
    for (auto& inst : instances_) inst->lock.set_metrics(sink);
  }

  /// Algorithm 6.1. `acquired` is true when the critical section was
  /// entered; false when the attempt was aborted (the abort signal was
  /// observed while waiting). `slot` is the queue index assigned by the
  /// joined instance's doorway, or kNoSlot when the attempt aborted during
  /// the spin-node wait, before joining an instance. Bounded abort: returns
  /// within a finite number of the caller's steps once the signal is up.
  EnterResult enter(Pid self, const std::atomic<bool>* abort_signal) {
    journal_.phase(self, kSpinWait);
    const Desc desc = Desc::unpack(mem_.read(self, *lock_desc_));  // line 57
    if (desc.spn == locals_.old_spn(self)) {
      // The instance we already used is still installed: wait on its spin
      // node until it is switched out (lines 58-61). Safe against node
      // reuse: our pin on this node was published in Cleanup before our
      // Refcnt decrement, so its owner cannot reclaim it while we are here.
      auto& node = spin_pool_.node(desc.spn);
      // Acquire side of the switch: observing go == 1 imports the switcher's
      // CAS install of the fresh instance and everything before it.
      auto outcome = mem_.wait(  // AML_X_EDGE(longlived.spn_switch)
          self, *node.go,
          [this, self](std::uint64_t v) {
            obs_.on_spin_iteration(self);
            return v != 0;
          },
          abort_signal);
      if (outcome.stopped) {  // lines 60-61 (refcnt untouched)
        journal_.phase(self, kIdle);
        obs_.on_abort(self, kNoSlot);
        return {false, kNoSlot};
      }
    }
    journal_.phase(self, kPreJoin);
    const Desc joined = journal_.join(mem_, self, self, *lock_desc_).pre;  // line 62
    AML_DASSERT(joined.refcnt < config_.nprocs, "Refcnt overflow");
    locals_.set_current(self, joined.lock);
    journal_.phase(self, kJoined);
    Instance& inst = *instances_[joined.lock];
    inst.space.begin_session(self);
    journal_.phase(self, kDoorway);
    const EnterResult result = inst.lock.enter(self, abort_signal);  // line 63
    if (!result.acquired) {  // lines 64-65
      journal_.phase(self, kCleanup);
      cleanup(self, self);
      journal_.phase(self, kIdle);
      return result;
    }
    journal_.phase(self, kHolding);
    return result;
  }

  /// Algorithm 6.2. Caller must hold the lock.
  void exit(Pid self) {
    const Desc desc = Desc::unpack(mem_.read(self, *lock_desc_));  // line 67
    AML_DASSERT(desc.lock == locals_.current(self),
                "installed instance changed under the CS holder (Claim 24)");
    auto& lock = instances_[desc.lock]->lock;
    journal_.snap_head(self, lock);
    journal_.phase(self, kReleasing);
    lock.exit(self);  // line 68
    journal_.phase(self, kCleanup);
    cleanup(self, self);  // line 69
    journal_.phase(self, kIdle);
  }

  // --- introspection -----------------------------------------------------

  /// LockDesc.Refcnt via a raw read (testing aid).
  std::uint64_t peek_refcnt(Pid self) {
    return Desc::unpack(mem_.read(self, *lock_desc_)).refcnt;
  }
  std::uint32_t instance_count() const {
    return static_cast<std::uint32_t>(instances_.size());
  }
  std::uint64_t total_incarnations() const {
    std::uint64_t total = 0;
    for (const auto& inst : instances_) total += inst->space.incarnations();
    return total;
  }
  /// Landed instance switches (Cleanup CAS installs), exact once the owners
  /// quiesce. Unlike total_incarnations(), this excludes the bumps of
  /// Cleanups whose install CAS lost (total_switches <= total_incarnations).
  std::uint64_t total_switches() const { return locals_.total_switches(); }
  /// Currently installed instance index, via a raw read (testing aid).
  std::uint32_t peek_installed(Pid self) {
    return Desc::unpack(mem_.read(self, *lock_desc_)).lock;
  }
  std::size_t spin_nodes() const { return spin_pool_.total_nodes(); }
  Journal& journal() { return journal_; }

  // --- oracle probes (no gating, no accounting; scheduler-thread safe) --

  /// Unpacked LockDesc snapshot for invariant oracles.
  using DescView = Desc;
  DescView probe_desc() const { return Desc::unpack(mem_.peek(*lock_desc_)); }
  /// Version word of instance `idx`'s space. Only instantiable when the
  /// space policy exposes peek_version() (VersionedSpace).
  std::uint64_t probe_space_version(std::uint32_t idx) const {
    return instances_[idx]->space.peek_version();
  }
  /// Wraparound mask of the spaces' version fields (same for all instances).
  /// Only instantiable when the space policy exposes version_mask().
  std::uint64_t probe_space_version_mask() const {
    return instances_[0]->space.version_mask();
  }
  const Config& config() const { return config_; }

  /// Test-only: overwrite the packed LockDesc word, bypassing the algorithm
  /// (oracle fire-tests manufacture illegal states with this).
  void debug_poke_desc(std::uint32_t lock, std::uint32_t spn,
                       std::uint32_t refcnt) {
    mem_.poke(*lock_desc_, Desc::pack(lock, spn, refcnt));
  }

 protected:
  // Steps a recovery driver (ipc::ShmStripeLockT::recover) re-runs for a
  // dead owner; a live process runs them with exec == owner.

  /// One recyclable one-shot lock instance: a word space plus the one-shot
  /// algorithm over it. All mutable state lives in the space's words, so the
  /// same objects serve every incarnation.
  struct Instance {
    Space space;
    OneShotT<Space, Metrics> lock;

    Instance(M& mem, const Config& config)
        : space(mem, config.nprocs, config.w),
          lock(space, config.nprocs, config.w, config.find) {}
  };

  /// Algorithm 6.3, with one addition for spin-node reclamation: the spin
  /// node we are about to save as oldSpn is published in the announce array
  /// *before* the Refcnt decrement. Claim 24 makes the pre-read of
  /// LockDesc.Spn stable (our increment is still in force), and publishing
  /// before decrementing guarantees the pin is visible before the node can
  /// be retired, hence before its owner can scan for reuse.
  void cleanup(Pid exec, Pid owner) {
    const Desc pinned = Desc::unpack(mem_.read(exec, *lock_desc_));
    journal_.publish_pin(mem_, spin_pool_, exec, owner, pinned.spn);
    const auto released =
        journal_.release(mem_, exec, owner, *lock_desc_);  // line 70
    AML_DASSERT(released.pre.spn == pinned.spn,
                "LockDesc.Spn changed while our Refcnt hold was in force");
    locals_.set_old_spn(owner, released.pre.spn);
    if (released.pre.refcnt != 1) return;  // line 71
    // We were the last user: switch to a fresh instance (lines 72-77).
    try_switch(exec, owner, released.post);
  }

  /// Switch LockDesc from `expected` (Refcnt 0) to a fresh instance.
  bool try_switch(Pid exec, Pid owner, std::uint64_t expected) {
    const std::uint64_t seq = journal_.announce_switch(owner, expected);
    return switch_attempt(exec, owner, expected, seq);
  }

  /// The switch after its announcement (a recovery driver re-enters here to
  /// redo an announced switch under the same sequence number).
  bool switch_attempt(Pid exec, Pid owner, std::uint64_t expected,
                      std::uint64_t seq) {
    const std::uint32_t new_lock = locals_.held(owner);
    instances_[new_lock]->space.next_incarnation(exec);
    const std::uint32_t new_spn =
        journal_.switch_node(spin_pool_, exec, owner, expected);
    const std::uint64_t desired =
        Desc::pack(new_lock, new_spn, 0, static_cast<std::uint32_t>(owner),
                   seq);
    if (!mem_.cas(exec, *lock_desc_, expected, desired)) {
      // Another process joined (and will run Cleanup itself) or switched
      // first; our node was never visible.
      journal_.abandon_switch(spin_pool_, exec, owner, new_spn);
      return false;
    }
    journal_.landed_switch(exec, owner, seq, new_lock);
    obs_.on_switch(exec);
    finish_switch(exec, owner, Desc::unpack(expected));
    return true;
  }

  /// Post-CAS steps of a landed switch: retire the replaced node and hold
  /// the replaced instance. Both idempotent, so a recovery driver re-runs
  /// them for an owner that died after its CAS landed.
  void finish_switch(Pid exec, Pid owner, const Desc& prev) {
    journal_.retire(mem_, exec, *spin_pool_.node(prev.spn).go);  // line 77
    locals_.switched(owner, prev.lock);
  }

  M& mem_;
  Config config_;
  SpinNodePool<M, Metrics> spin_pool_;
  [[no_unique_address]] Journal journal_;
  std::vector<std::unique_ptr<Instance>> instances_;
  typename Journal::Locals locals_;
  typename M::Word* lock_desc_ = nullptr;
  [[no_unique_address]] obs::SinkHandle<Metrics> obs_;
};

}  // namespace aml::core
