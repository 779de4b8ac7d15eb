// ShmStripeLockT: the Section 6 long-lived transformation re-instantiated
// over shared memory, with owner-death recovery.
//
// Structure mirrors core::LongLivedLock exactly — one packed LockDesc word,
// N+1 recyclable one-shot instances over VersionedSpace, an announce-array
// spin-node pool — but every word that was process-heap state now lives in
// the ShmArena, and the per-process Local bookkeeping (held / old_spn /
// current) moves into a shm PassageSlot so a *survivor* can finish a dead
// process's passage.
//
// Recovery model (crash = forced abort, after Katzan & Morrison's
// recoverable-abortable lock, arxiv.org/2011.07622): each process journals
// its progress through a passage as a phase word plus an attempt word
// (queue slot + instance index, written by the RecoverySink the moment the
// one-shot doorway assigns them). A recoverer that has claimed the victim's
// registry slot (see process_registry.hpp) reads the frozen journal and
// resumes the passage at the recorded phase, running the *same algorithm
// steps* the victim would have: abort_on_behalf for a waiting victim,
// complete_grant + exit for a granted-but-dead one, exit for a dead CS
// holder, resignal for a death mid-hand-off — then the ordinary Cleanup.
// Every step it reuses is idempotent or exactly-once by phase, which is
// what makes the replay safe; see docs/API.md for the full state machine.
//
// Recoverable fetch-and-add (v3, closing v1's two zombie windows): the
// LockDesc refcnt updates are no longer bare F&As. Before touching the
// word, the caller announces the operation in its own PassageSlot —
// op kind + sequence number in `ann_desc`, then on every attempt the
// pre-image in `ann_pre` — and performs the F&A as a CAS that stamps
// (pid, seq) into reserved LockDesc bits. Two rules make the outcome
// decidable post-mortem:
//
//   1. every mutator of LockDesc first *helps*: it reads the stamp it is
//      about to overwrite and, if that pid's currently announced sequence
//      matches, records it in the pid's `landed` word (a CAS-max) before
//      the overwrite can retire the evidence;
//   2. a winner records its own success in `landed` before announcing any
//      later operation.
//
// So a recoverer asking "did the victim's announced op seq land?" answers
// definitively: either the stamp (victim, seq) is still in the word, or —
// if it ever was — rule 1/2 guarantees landed[victim] >= seq (all stores
// involved are seq_cst, so the recoverer's two loads cannot both miss). If
// neither holds, the CAS never succeeded. The pre-join and cleanup arms
// therefore complete or compensate the F&A instead of retiring the pid;
// the stamp sequence is truncated to 24 bits in the word, so the in-word
// test alone is ambiguous only after 2^24 full passages inside one
// recoverer read — far beyond the claim hold time (same bounded-reuse
// assumption as the 32-bit recovery seqlock below).
//
// One window remains journal-blind: inside the one-shot doorway before the
// sink records the tail F&A's slot (kDoorway, attempt unrecorded). A death
// there still retires the pid (kZombie) — but retired pids are now
// *reclaimable* after a full-quiescence epoch (see process_registry.hpp).
//
// Memory visibility across processes: a victim writes its plain journal
// fields (head_snap, current, ann_pre) before the seq_cst phase/announce
// store that makes them relevant, and the recoverer seq_cst-loads the
// phase before reading them, so every journal read is ordered after the
// matching write. Only one recoverer touches a stripe at a time (per-stripe
// recovery seqlock with dead-holder takeover), and only after winning the
// victim's registry claim.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>
#include <signal.h>

#include "aml/core/oneshot.hpp"
#include "aml/core/versioned_space.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/obs/shm_metrics.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"

namespace aml::ipc {

using model::Pid;

/// Passage phases, in journal order. The victim stores each phase with
/// seq_cst *before* taking the step the phase names, so a recoverer reading
/// phase P knows every step before P completed and no step after P started
/// (except the one in flight, which each recovery arm reasons about).
enum Phase : std::uint64_t {
  kIdle = 0,      ///< no passage in progress
  kSpinWait = 1,  ///< maybe waiting on old_spn's node; LockDesc untouched
  kPreJoin = 2,   ///< join F&A announced/in flight (recoverable: see header)
  kJoined = 3,    ///< refcnt incremented; `current` names the instance
  kDoorway = 4,   ///< inside one-shot enter; attempt word has the slot
  kHolding = 5,   ///< in the critical section
  kReleasing = 6, ///< inside one-shot exit; head_snap recorded
  kCleanup = 7,   ///< release F&A / instance switch announced or in flight
};

/// Render any phase word, including values from a newer layout this build
/// does not know: those come back as "unknown(<n>)" so a v2 reader can
/// still inspect (and a JSON schema still validate) a v3 segment.
inline std::string phase_label(std::uint64_t p) {
  switch (p) {
    case kIdle: return "idle";
    case kSpinWait: return "spin-wait";
    case kPreJoin: return "pre-join";
    case kJoined: return "joined";
    case kDoorway: return "doorway";
    case kHolding: return "holding";
    case kReleasing: return "releasing";
    case kCleanup: return "cleanup";
    default: break;
  }
  return "unknown(" + std::to_string(p) + ")";
}

inline std::string phase_name(Phase p) {
  return phase_label(static_cast<std::uint64_t>(p));
}

/// Attempt-word packing: bit 0 = a doorway record exists, bit 1 = the grant
/// was observed by the victim, bits [2, 34) = queue slot, bits [34, 50) =
/// instance index.
inline constexpr std::uint64_t kAttemptRecorded = 1;
inline constexpr std::uint64_t kAttemptGranted = 2;

inline constexpr std::uint64_t pack_attempt(std::uint32_t slot,
                                            std::uint32_t instance) {
  return kAttemptRecorded | (static_cast<std::uint64_t>(slot) << 2) |
         (static_cast<std::uint64_t>(instance) << 34);
}
inline constexpr std::uint32_t attempt_slot(std::uint64_t a) {
  return static_cast<std::uint32_t>((a >> 2) & 0xFFFF'FFFFull);
}
inline constexpr std::uint32_t attempt_instance(std::uint64_t a) {
  return static_cast<std::uint32_t>((a >> 34) & 0xFFFFull);
}

/// Announcement-word packing for the recoverable F&A: low 2 bits are the
/// op kind, the rest a per-pid monotone sequence number. The sequence is
/// never reset — it spans passages, incarnations and recovered redos.
inline constexpr std::uint64_t kAnnOpNone = 0;
inline constexpr std::uint64_t kAnnOpJoin = 1;     ///< refcnt + 1 (enter)
inline constexpr std::uint64_t kAnnOpRelease = 2;  ///< refcnt - 1 (cleanup)
inline constexpr std::uint64_t kAnnOpSwitch = 3;   ///< instance-switch CAS
inline constexpr std::uint64_t kAnnOpBits = 2;
inline constexpr std::uint64_t kAnnOpMask = (1ull << kAnnOpBits) - 1;

inline constexpr std::uint64_t ann_pack(std::uint64_t seq, std::uint64_t op) {
  return (seq << kAnnOpBits) | op;
}
inline constexpr std::uint64_t ann_seq(std::uint64_t a) {
  return a >> kAnnOpBits;
}
inline constexpr std::uint64_t ann_op(std::uint64_t a) {
  return a & kAnnOpMask;
}

/// `ann_aux` sentinel: no spin node journaled for the announced switch.
inline constexpr std::uint64_t kAuxNone = ~std::uint64_t{0};

// AML_SHM_REGION_BEGIN
/// Per-pid passage journal + the long-lived lock's per-process locals,
/// promoted to shm so recovery (and the pid's next leaseholder) can read
/// them. Two cache lines per pid: the owner writes its own slot on its hot
/// path; recoverers only read it after the owner is dead (`landed` is the
/// one exception — helpers CAS-max it on the owner's behalf).
struct alignas(pal::kCacheLine) PassageSlot {
  std::atomic<std::uint64_t> phase;      ///< Phase, seq_cst journal order
  std::atomic<std::uint64_t> attempt;    ///< packed attempt word
  std::atomic<std::uint64_t> head_snap;  ///< head read at exit start
  std::atomic<std::uint64_t> held;       ///< instance for the next switch
  std::atomic<std::uint64_t> old_spn;    ///< spin node saved at last Cleanup
  std::atomic<std::uint64_t> current;    ///< instance joined by this attempt
  std::atomic<std::uint64_t> ann_desc;   ///< announced op: (seq << 2) | op
  std::atomic<std::uint64_t> ann_pre;    ///< pre-image of the announced CAS
  std::atomic<std::uint64_t> ann_aux;    ///< switch's journaled spin node
  std::atomic<std::uint64_t> landed;     ///< max seq proven landed (CAS-max)
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(PassageSlot);

/// The per-instance metrics sink: journals doorway slot assignment and grant
/// acknowledgment into the passage slots (that is the recovery journal), and
/// forwards every hook to the segment-hosted obs::ShmMetrics when bound —
/// which is how passages, recovered ones included (the recoverer drives the
/// same hooks), survive the process. It is the only sink a passage pays
/// for, and its writes all land in the acting pid's own cells (see
/// obs/shm_metrics.hpp). This is the SinkHandle<Metrics> sink of every shm
/// one-shot instance, so binding here is what routes
/// ShmSpace/ShmStripeLockT passages into the crash-surviving rings.
class RecoverySink {
 public:
  static constexpr bool kEnabled = true;

  void configure(PassageSlot* slots, std::uint32_t instance) {
    slots_ = slots;
    instance_ = instance;
  }
  void bind_shm(obs::ShmMetrics* shm, std::uint32_t stripe) {
    shm_ = shm;
    stripe_ = stripe;
  }

  void on_enter(Pid p, std::uint32_t slot) {
    slots_[p].attempt.store(pack_attempt(slot, instance_),
                            std::memory_order_seq_cst);
    if (shm_ != nullptr) shm_->on_enter(stripe_, p, slot, instance_);
  }
  void on_granted(Pid p, std::uint32_t slot) {
    slots_[p].attempt.fetch_or(kAttemptGranted, std::memory_order_seq_cst);
    if (shm_ != nullptr) shm_->on_granted(stripe_, p, slot, instance_);
  }
  void on_abort(Pid p, std::uint32_t slot) {
    if (shm_ != nullptr) shm_->on_abort(stripe_, p, slot, instance_);
  }
  void on_exit(Pid p, std::uint32_t slot) {
    if (shm_ != nullptr) shm_->on_exit(stripe_, p, slot, instance_);
  }
  void on_switch(Pid /*p*/) {}
  void on_spin_iteration(Pid p) {
    if (shm_ != nullptr) shm_->on_spin_iteration(p);
  }
  void on_findnext(Pid p) {
    if (shm_ != nullptr) shm_->on_findnext(p);
  }
  void on_spin_node_recycle(Pid p, std::uint64_t nodes) {
    if (shm_ != nullptr) shm_->on_spin_node_recycle(p, nodes);
  }

 private:
  PassageSlot* slots_ = nullptr;
  std::uint32_t instance_ = 0;
  obs::ShmMetrics* shm_ = nullptr;
  std::uint32_t stripe_ = 0;
};

/// Spin-node pool with all of its state — go words, announce pins, and the
/// free/issued marks — in shm. Unlike core::SpinNodePool there are no
/// process-local free lists: allocation scans the owner's N+1 state marks
/// (O(N), and only on an instance switch, which the transformation already
/// charges O(N) work to), because the marks must survive the owner's death
/// for the recoverer and for the pid's next leaseholder.
class ShmSpinNodePool {
 public:
  using Word = ShmSpace::Word;

  static constexpr std::uint64_t kNoPin = ~std::uint64_t{0};
  static constexpr std::uint32_t kStateFree = 0;
  static constexpr std::uint32_t kStateIssued = 1;

  struct Node {
    Word* go = nullptr;
  };

  ShmSpinNodePool(ShmSpace& space, Pid nprocs, std::uint32_t per_pool)
      : space_(space), nprocs_(nprocs), per_pool_(per_pool) {
    const std::size_t total = static_cast<std::size_t>(nprocs) * per_pool;
    // Node indices are journaled into the 16-bit LockDesc.Spn field; the
    // nprocs <= 254 cap (LockDesc packing) keeps total <= 254 * 255.
    AML_ASSERT(total < (1u << 16), "spin-node index exceeds Spn field");
    nodes_.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      nodes_.push_back(Node{space_.alloc(1, 0)});
    }
    announce_.reserve(nprocs);
    for (Pid p = 0; p < nprocs; ++p) {
      announce_.push_back(space_.alloc(1, kNoPin));
    }
    // Zero-filled pages decode as "all free", so the marks need no init.
    states_ = space_.arena().alloc_array<std::atomic<std::uint32_t>>(total);
  }

  ShmSpinNodePool(const ShmSpinNodePool&) = delete;
  ShmSpinNodePool& operator=(const ShmSpinNodePool&) = delete;

  Node& node(std::uint32_t global_idx) { return nodes_[global_idx]; }
  std::uint32_t per_pool() const { return per_pool_; }
  std::size_t total_nodes() const { return nodes_.size(); }

  /// Publish that `owner` holds `global_idx` as its oldSpn (see
  /// core::SpinNodePool::publish_pin). `exec` performs the write — during
  /// recovery it differs from `owner`, and the pin still lands in the
  /// *owner's* announce word so it protects the pid's next leaseholder.
  void publish_pin(Pid exec, Pid owner, std::uint32_t global_idx) {
    space_.write(exec, *announce_[owner], global_idx);
  }

  void clear_pin(Pid exec, Pid owner) {
    space_.write(exec, *announce_[owner], kNoPin);
  }

  /// Obtain a reusable node (go == 0) from `owner`'s pool. Serialized per
  /// owner: the owner itself, or (after its death) the single recoverer
  /// holding its registry claim.
  std::uint32_t alloc(Pid exec, Pid owner) {
    const std::uint32_t idx = select(exec, owner);
    commit(idx);
    return idx;
  }

  /// Two-step variant for journaled switches: `select` picks a reusable
  /// node (same scan + reclaim as alloc) WITHOUT marking it issued, so the
  /// caller can journal the choice (PassageSlot.ann_aux) first; `commit`
  /// then marks it. Both the mark and `unalloc` are idempotent plain
  /// stores, so a recoverer can safely redo whichever side of the journal
  /// write the victim died on.
  std::uint32_t select(Pid exec, Pid owner) {
    const std::uint32_t base = owner * per_pool_;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint32_t k = 0; k < per_pool_; ++k) {
        if (states_[base + k].load(std::memory_order_acquire) == kStateFree) {  // AML_X_EDGE(ipc.node_state)
          return base + k;
        }
      }
      reclaim(exec, owner);
    }
    AML_ASSERT(false, "shm spin-node pool exhausted: invariant violated");
    return 0;
  }

  void commit(std::uint32_t global_idx) {
    states_[global_idx].store(kStateIssued, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
  }

  /// Return a node that never became visible (install CAS lost).
  void unalloc(Pid /*exec*/, Pid owner, std::uint32_t global_idx) {
    AML_ASSERT(global_idx / per_pool_ == owner, "unalloc by non-owner");
    states_[global_idx].store(kStateFree, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
  }

 private:
  /// Same quiescence test as core::SpinNodePool::reclaim: a node is
  /// reusable once retired (go == 1, set by the switch that replaced it)
  /// and pinned by no announce entry.
  void reclaim(Pid exec, Pid owner) {
    const std::uint32_t base = owner * per_pool_;
    std::vector<bool> pinned(per_pool_, false);
    for (Pid p = 0; p < nprocs_; ++p) {
      const std::uint64_t pin = space_.read(exec, *announce_[p]);
      if (pin != kNoPin && pin / per_pool_ == static_cast<std::uint64_t>(
                                                  owner)) {
        pinned[pin % per_pool_] = true;
      }
    }
    for (std::uint32_t k = 0; k < per_pool_; ++k) {
      const std::uint32_t idx = base + k;
      if (states_[idx].load(std::memory_order_acquire) != kStateIssued ||  // AML_X_EDGE(ipc.node_state)
          pinned[k]) {
        continue;
      }
      if (space_.read(exec, *nodes_[idx].go) != 1) continue;  // installed
      space_.write(exec, *nodes_[idx].go, 0);
      states_[idx].store(kStateFree, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
    }
  }

  ShmSpace& space_;
  Pid nprocs_;
  std::uint32_t per_pool_;
  std::vector<Node> nodes_;
  std::vector<Word*> announce_;
  std::atomic<std::uint32_t>* states_ = nullptr;  ///< shm, survives owners
};

/// What a recovery pass did with a victim's passage on one stripe.
enum class RecoveryAction : std::uint8_t {
  kNone,         ///< victim was idle / pre-doorway here: nothing to repair
  kForcedAbort,  ///< waiting victim driven through the abort path
  kForcedExit,   ///< granted/holding victim's CS force-exited + cleaned up
  kResignalled,  ///< death mid-exit: hand-off re-driven from head_snap
  kZombie,       ///< death in the doorway before the sink's slot record —
                 ///  the one remaining journal-blind window; pid retired
                 ///  (reclaimable after a quiescence epoch, see registry)
};

/// `Metrics` is kept for source compatibility with code that names the
/// stripe by sink type; passages report only through set_shm_metrics.
template <typename Metrics = obs::NullMetrics>
class ShmStripeLockT {
 public:
  using Space = core::VersionedSpace<ShmSpace>;
  using OneShot = core::OneShotLock<Space, RecoverySink>;

  struct Config {
    Pid nprocs = 2;
    std::uint32_t w = 64;
    core::Find find = core::Find::kAdaptive;
  };

  /// Both roles run the identical construction (deterministic replay); only
  /// the creator's word allocations store initial values, and only the
  /// creator touches non-arena shm state (spin-node marks, PassageSlots).
  ShmStripeLockT(ShmSpace& space, Config config)
      : space_(space),
        config_(config),
        pool_(space, config.nprocs, config.nprocs + 1) {
    AML_ASSERT(config.nprocs >= 1 && config.nprocs <= kMaxProcs,
               "nprocs out of range for LockDesc packing");
    slots_ = space_.arena().alloc_array<PassageSlot>(config.nprocs);
    if (space_.arena().creating()) {
      for (Pid p = 0; p < config.nprocs; ++p) {
        // seq_cst for uniformity with every later phase store (amlint R7);
        // pre-seal, ordering is moot — attachers sync on the seal.
        slots_[p].phase.store(kIdle, std::memory_order_seq_cst);
        slots_[p].attempt.store(0, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].head_snap.store(0, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].held.store(p + 1, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].old_spn.store(kNoSpn, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].current.store(0, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].ann_desc.store(ann_pack(0, kAnnOpNone),
                                 std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].ann_pre.store(0, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].ann_aux.store(kAuxNone, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
        slots_[p].landed.store(0, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      }
    }
    instances_.reserve(config.nprocs + 1);
    for (Pid i = 0; i <= config.nprocs; ++i) {
      instances_.push_back(std::make_unique<Instance>(space_, config_));
      instances_.back()->sink.configure(slots_,
                                        static_cast<std::uint32_t>(i));
      instances_.back()->lock.set_metrics(&instances_.back()->sink);
    }
    // The bootstrap node issue mutates only the (idempotent-from-zero)
    // shm state marks, never the arena cursor, so the attacher skipping it
    // keeps the replay aligned; node 0 of owner 0 is the deterministic pick
    // either way.
    std::uint32_t spn0 = 0;
    if (space_.arena().creating()) spn0 = pool_.alloc(0, 0);
    lock_desc_ = space_.alloc(1, pack_stamped(0, spn0, 0, kNoStampPid, 0));
    recovery_ = space_.alloc(1, 0);
  }

  ShmStripeLockT(const ShmStripeLockT&) = delete;
  ShmStripeLockT& operator=(const ShmStripeLockT&) = delete;

  /// Bind the segment-hosted sink (crash-surviving: see obs/shm_metrics.hpp).
  /// `stripe_id` tags every event this stripe emits into the segment's rings.
  void set_shm_metrics(obs::ShmMetrics* shm, std::uint32_t stripe_id) {
    shm_ = shm;
    stripe_id_ = stripe_id;
    for (auto& inst : instances_) inst->sink.bind_shm(shm, stripe_id);
  }

  // --- the long-lived algorithm, journaled (Algorithms 6.1-6.3) ----------

  core::EnterResult enter(Pid self, const std::atomic<bool>* abort_signal) {
    PassageSlot& my = slots_[self];
    my.attempt.store(0, std::memory_order_seq_cst);
    my.phase.store(kSpinWait, std::memory_order_seq_cst);
    const Packed desc = unpack(space_.read(self, *lock_desc_));
    if (desc.spn == my.old_spn.load(std::memory_order_seq_cst)) {
      // Acquire side of the switch retirement (see core/longlived.hpp).
      auto outcome = space_.wait(  // AML_X_EDGE(longlived.spn_switch)
          self, *pool_.node(desc.spn).go,
          [this, self](std::uint64_t v) {
            if (shm_ != nullptr) shm_->on_spin_iteration(self);
            return v != 0;
          },
          abort_signal);
      if (outcome.stopped) {
        my.phase.store(kIdle, std::memory_order_seq_cst);
        if (shm_ != nullptr) {
          shm_->on_abort(stripe_id_, self, obs::kNoSlot, 0);
        }
        return {false, core::kNoSlot};
      }
    }
    my.phase.store(kPreJoin, std::memory_order_seq_cst);
    const RmwResult jr = recoverable_rmw(self, self, kAnnOpJoin);
    AML_DASSERT(jr.pre.refcnt < config_.nprocs, "Refcnt overflow");
    my.current.store(jr.pre.lock, std::memory_order_seq_cst);
    my.phase.store(kJoined, std::memory_order_seq_cst);
    Instance& inst = *instances_[jr.pre.lock];
    inst.space.begin_session(self);
    my.phase.store(kDoorway, std::memory_order_seq_cst);
    const core::EnterResult result = inst.lock.enter(self, abort_signal);
    if (!result.acquired) {
      my.phase.store(kCleanup, std::memory_order_seq_cst);
      cleanup_impl(self, self);
      my.attempt.store(0, std::memory_order_seq_cst);
      my.phase.store(kIdle, std::memory_order_seq_cst);
      return result;
    }
    my.phase.store(kHolding, std::memory_order_seq_cst);
    return result;
  }

  void exit(Pid self) {
    PassageSlot& my = slots_[self];
    const Packed desc = unpack(space_.read(self, *lock_desc_));
    AML_DASSERT(desc.lock == my.current.load(std::memory_order_seq_cst),
                "installed instance changed under the CS holder (Claim 24)");
    Instance& inst = *instances_[desc.lock];
    my.head_snap.store(inst.lock.peek_head(self), std::memory_order_seq_cst);
    my.phase.store(kReleasing, std::memory_order_seq_cst);
    inst.lock.exit(self);
    my.phase.store(kCleanup, std::memory_order_seq_cst);
    cleanup_impl(self, self);
    my.attempt.store(0, std::memory_order_seq_cst);
    my.phase.store(kIdle, std::memory_order_seq_cst);
  }

  // --- recovery ----------------------------------------------------------

  /// Repair `victim`'s passage on this stripe, executing as `exec` (the
  /// recoverer's leased pid — all memory operations are its own steps; the
  /// victim pid is only the journal being read). Caller must hold the
  /// victim's registry recovery claim; this takes the per-stripe recovery
  /// seqlock around the repair. Returns what was done; kZombie means the
  /// victim died in the doorway's journal-blind window and its pid must be
  /// retired (reclaimable once a quiescence epoch proves no references).
  RecoveryAction recover(Pid exec, Pid victim, std::uint64_t exec_os_pid) {
    lock_recovery(exec, exec_os_pid);
    const RecoveryAction action = recover_locked(exec, victim);
    unlock_recovery(exec);
    return action;
  }

  // --- introspection -----------------------------------------------------

  std::uint64_t peek_refcnt(Pid self) {
    return unpack(space_.read(self, *lock_desc_)).refcnt;
  }
  std::uint32_t peek_installed(Pid self) {
    return unpack(space_.read(self, *lock_desc_)).lock;
  }
  Phase peek_phase(Pid p) const {
    return static_cast<Phase>(slots_[p].phase.load(std::memory_order_seq_cst));
  }
  /// The raw announced-op word ((seq << 2) | op) of `p`'s journal.
  std::uint64_t peek_announcement(Pid p) const {
    return slots_[p].ann_desc.load(std::memory_order_seq_cst);
  }
  /// Highest announcement sequence of `p` proven landed.
  std::uint64_t peek_landed(Pid p) const {
    return slots_[p].landed.load(std::memory_order_seq_cst);
  }
  /// Completed recovery passes on this stripe (seqlock sequence number).
  std::uint64_t recovery_epoch(Pid self) {
    return space_.read(self, *recovery_) >> 32;
  }
  const Config& config() const { return config_; }

  /// Reset `p`'s journal to the leasable baseline (phase kIdle, attempt
  /// cleared). Only valid once the table's reclamation gate has held: the
  /// quiescence epoch proves no live passage still reads the journal, and a
  /// frozen phase in {kIdle, kSpinWait, kPreJoin} leaves nothing in the
  /// stripe itself to repair.
  void clear_journal(Pid p) {
    slots_[p].attempt.store(0, std::memory_order_seq_cst);
    slots_[p].phase.store(kIdle, std::memory_order_seq_cst);
  }

  /// Test hook: forge a pid's journaled phase so recovery arms can be
  /// staged without a precisely-timed crash.
  void debug_set_phase(Pid p, Phase phase) {
    slots_[p].phase.store(phase, std::memory_order_seq_cst);
  }

  /// Test hook: replay exactly the kJoined crash window for `p` — the join
  /// F&A has run (refcnt bumped, current instance recorded) but no doorway
  /// presence exists yet — so the abort-on-behalf repair of a pid dead in
  /// that window can be staged deterministically. Leaves real, consistent
  /// stripe state: recovery's one Cleanup undoes it completely.
  void debug_forge_joined(Pid p) {
    PassageSlot& my = slots_[p];
    my.attempt.store(0, std::memory_order_seq_cst);
    const RmwResult jr = recoverable_rmw(p, p, kAnnOpJoin);
    my.current.store(jr.pre.lock, std::memory_order_seq_cst);
    my.phase.store(kJoined, std::memory_order_seq_cst);
  }

  /// Test hook: death at kPreJoin with the join announced but its CAS never
  /// issued. The compensation arm must conclude "did not land" and abandon
  /// the join (refcnt untouched).
  void debug_forge_prejoin_announced(Pid p) {
    PassageSlot& my = slots_[p];
    my.attempt.store(0, std::memory_order_seq_cst);
    my.phase.store(kPreJoin, std::memory_order_seq_cst);
    const std::uint64_t seq =
        ann_seq(my.ann_desc.load(std::memory_order_seq_cst)) + 1;
    my.ann_desc.store(ann_pack(seq, kAnnOpJoin), std::memory_order_seq_cst);
  }

  /// Test hook: death at kPreJoin one instruction after the join CAS landed
  /// (before the kJoined phase store). The completion arm must conclude
  /// "landed" and undo the join with one Cleanup.
  void debug_forge_prejoin_landed(Pid p) {
    PassageSlot& my = slots_[p];
    my.attempt.store(0, std::memory_order_seq_cst);
    my.phase.store(kPreJoin, std::memory_order_seq_cst);
    recoverable_rmw(p, p, kAnnOpJoin);
  }

  /// Test hook: death at kCleanup before the release was announced. The
  /// recovery arm must rerun the whole Cleanup under a fresh announcement.
  void debug_forge_cleanup_announced(Pid p) {
    debug_forge_joined(p);
    PassageSlot& my = slots_[p];
    my.phase.store(kCleanup, std::memory_order_seq_cst);
    const std::uint64_t seq =
        ann_seq(my.ann_desc.load(std::memory_order_seq_cst)) + 1;
    my.ann_desc.store(ann_pack(seq, kAnnOpRelease),
                      std::memory_order_seq_cst);
  }

  /// Test hook: death at kCleanup right after the release CAS landed —
  /// locals unsaved, instance switch (if owed) not yet announced. The
  /// completion arm must finish both from the journaled pre-image.
  void debug_forge_cleanup_released(Pid p) {
    debug_forge_joined(p);
    PassageSlot& my = slots_[p];
    my.phase.store(kCleanup, std::memory_order_seq_cst);
    const Packed pinned = unpack(space_.read(p, *lock_desc_));
    pool_.publish_pin(p, p, pinned.spn);
    recoverable_rmw(p, p, kAnnOpRelease);
  }

  /// Test hook: death at kCleanup with the release landed and the instance
  /// switch announced but its CAS never issued. Recovery must redo the very
  /// same switch (same sequence number) or compensate if the world moved.
  void debug_forge_cleanup_switch_announced(Pid p) {
    debug_forge_joined(p);
    PassageSlot& my = slots_[p];
    my.phase.store(kCleanup, std::memory_order_seq_cst);
    const Packed pinned = unpack(space_.read(p, *lock_desc_));
    pool_.publish_pin(p, p, pinned.spn);
    const RmwResult r = recoverable_rmw(p, p, kAnnOpRelease);
    my.old_spn.store(r.pre.spn, std::memory_order_seq_cst);
    if (r.pre.refcnt != 1) return;  // forge needs sole membership to switch
    const std::uint64_t seq =
        ann_seq(my.ann_desc.load(std::memory_order_seq_cst)) + 1;
    my.ann_pre.store(r.post_raw, std::memory_order_seq_cst);
    my.ann_aux.store(kAuxNone, std::memory_order_seq_cst);
    my.ann_desc.store(ann_pack(seq, kAnnOpSwitch), std::memory_order_seq_cst);
  }

 private:
  // LockDesc packing (low to high): Refcnt | Spn | Lock | StampPid |
  // StampSeq. The stamp names the last recoverable F&A that landed on the
  // word: the 8-bit pid of the announcer and the low 24 bits of its
  // announcement sequence (see the file header for the decidability rule).
  static constexpr std::uint32_t kRefBits = 8;
  static constexpr std::uint32_t kSpnBits = 16;
  static constexpr std::uint32_t kLockBits = 8;
  static constexpr std::uint32_t kStampPidBits = 8;
  static constexpr std::uint32_t kStampSeqBits = 24;
  static constexpr Pid kMaxProcs = (1u << kRefBits) - 2;
  static constexpr std::uint32_t kNoStampPid = (1u << kStampPidBits) - 1;
  static constexpr std::uint32_t kNoSpn = ~std::uint32_t{0};

  struct Packed {
    std::uint32_t lock;
    std::uint32_t spn;
    std::uint32_t refcnt;
    std::uint32_t stamp_pid;
    std::uint32_t stamp_seq;
  };

  static std::uint64_t pack_stamped(std::uint32_t lock, std::uint32_t spn,
                                    std::uint32_t refcnt,
                                    std::uint32_t stamp_pid,
                                    std::uint64_t stamp_seq) {
    return static_cast<std::uint64_t>(refcnt) |
           (static_cast<std::uint64_t>(spn) << kRefBits) |
           (static_cast<std::uint64_t>(lock) << (kRefBits + kSpnBits)) |
           (static_cast<std::uint64_t>(stamp_pid)
            << (kRefBits + kSpnBits + kLockBits)) |
           ((stamp_seq & ((1ull << kStampSeqBits) - 1))
            << (kRefBits + kSpnBits + kLockBits + kStampPidBits));
  }
  static Packed unpack(std::uint64_t raw) {
    Packed packed;
    packed.refcnt = static_cast<std::uint32_t>(raw & ((1u << kRefBits) - 1));
    packed.spn = static_cast<std::uint32_t>((raw >> kRefBits) &
                                            ((1u << kSpnBits) - 1));
    packed.lock = static_cast<std::uint32_t>((raw >> (kRefBits + kSpnBits)) &
                                             ((1u << kLockBits) - 1));
    packed.stamp_pid = static_cast<std::uint32_t>(
        (raw >> (kRefBits + kSpnBits + kLockBits)) &
        ((1u << kStampPidBits) - 1));
    packed.stamp_seq = static_cast<std::uint32_t>(
        raw >> (kRefBits + kSpnBits + kLockBits + kStampPidBits));
    return packed;
  }

  /// One recyclable one-shot instance (see core::LongLivedLock::Instance)
  /// plus its journaling sink. The VersionedSpace's session/cursor caches
  /// are process-local; each attached process holds its own replica resolved
  /// against the same shm words. (The cursor divergence this allows in the
  /// eager-reset rotation is benign: at W = 64 the wraparound quota is one
  /// word per reuse and the period is 2^63 reuses. The same property makes
  /// the switch-redo's repeated next_incarnation call safe: the version
  /// compare is equality-only, so burning an extra generation is harmless.)
  struct Instance {
    Space space;
    OneShot lock;
    RecoverySink sink;

    Instance(ShmSpace& shm, const Config& config)
        : space(shm, config.nprocs, config.w),
          lock(space, config.nprocs, config.w, config.find) {}
  };

  struct RmwResult {
    Packed pre;              ///< decoded pre-image of the landed CAS
    std::uint64_t post_raw;  ///< the stamped word the CAS installed
  };

  /// The recoverable F&A (file header): announce in `owner`'s slot, then
  /// CAS-with-stamp until it lands. `exec` performs every memory operation;
  /// during recovery it differs from `owner` — the announcement and stamp
  /// still carry the *owner's* identity, so if the recoverer itself dies,
  /// the next recoverer reads one coherent journal (the owner's).
  RmwResult recoverable_rmw(Pid exec, Pid owner, std::uint64_t op) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t seq =
        ann_seq(own.ann_desc.load(std::memory_order_seq_cst)) + 1;
    own.ann_desc.store(ann_pack(seq, op), std::memory_order_seq_cst);
    for (;;) {
      const std::uint64_t w = space_.read(exec, *lock_desc_);
      help_landed(exec, w);
      own.ann_pre.store(w, std::memory_order_seq_cst);
      const Packed p = unpack(w);
      AML_DASSERT(op == kAnnOpJoin ? p.refcnt < kMaxProcs : p.refcnt >= 1,
                  "LockDesc refcnt out of range in recoverable F&A");
      const std::uint32_t refcnt =
          op == kAnnOpJoin ? p.refcnt + 1 : p.refcnt - 1;
      const std::uint64_t desired = pack_stamped(
          p.lock, p.spn, refcnt, static_cast<std::uint32_t>(owner), seq);
      if (space_.cas(exec, *lock_desc_, w, desired)) {
        bump_landed(owner, seq);
        return {p, desired};
      }
    }
  }

  /// Helping rule 1: before a word stamped (q, s) can be overwritten, the
  /// overwriter credits q's announcement if it is still the announced op.
  /// (If q has already announced a later op, q itself recorded s via rule 2
  /// before announcing, so nothing is lost by skipping.)
  void help_landed(Pid /*exec*/, std::uint64_t w) {
    const Packed p = unpack(w);
    if (p.stamp_pid >= static_cast<std::uint32_t>(config_.nprocs)) return;
    const Pid q = static_cast<Pid>(p.stamp_pid);
    const std::uint64_t ann =
        slots_[q].ann_desc.load(std::memory_order_seq_cst);
    const std::uint64_t mask = (1ull << kStampSeqBits) - 1;
    if ((ann_seq(ann) & mask) == p.stamp_seq) {
      bump_landed(q, ann_seq(ann));
    }
  }

  /// CAS-max on `owner`'s landed word (monotone: sequences only grow).
  void bump_landed(Pid owner, std::uint64_t seq) {
    std::uint64_t cur = slots_[owner].landed.load(std::memory_order_seq_cst);
    while (cur < seq && !slots_[owner].landed.compare_exchange_weak(
                            cur, seq, std::memory_order_seq_cst)) {
    }
  }

  /// The post-mortem decision predicate (file header): did `victim`'s
  /// announced op `seq` land? Word first, landed second — a concurrent
  /// overwrite between the two loads has already credited `landed`.
  bool announced_landed(Pid exec, Pid victim, std::uint64_t seq) {
    const Packed p = unpack(space_.read(exec, *lock_desc_));
    const std::uint64_t mask = (1ull << kStampSeqBits) - 1;
    if (p.stamp_pid == static_cast<std::uint32_t>(victim) &&
        p.stamp_seq == (seq & mask)) {
      return true;
    }
    return slots_[victim].landed.load(std::memory_order_seq_cst) >= seq;
  }

  /// Algorithm 6.3, executable by a proxy: `exec` performs the steps,
  /// `owner` is whose passage is being cleaned up (its PassageSlot carries
  /// held/old_spn and the announcements, its announce word takes the pin,
  /// its pool supplies the switch node). For a live process exec == owner.
  void cleanup_impl(Pid exec, Pid owner) {
    PassageSlot& own = slots_[owner];
    const Packed pinned = unpack(space_.read(exec, *lock_desc_));
    pool_.publish_pin(exec, owner, pinned.spn);
    const RmwResult r = recoverable_rmw(exec, owner, kAnnOpRelease);
    AML_DASSERT(r.pre.spn == pinned.spn,
                "LockDesc.Spn changed while our Refcnt hold was in force");
    own.old_spn.store(r.pre.spn, std::memory_order_seq_cst);
    if (r.pre.refcnt != 1) return;
    try_switch(exec, owner, r.post_raw);
  }

  /// The instance switch as a journaled announcement: ann_pre takes the
  /// expected word and ann_aux the chosen spin node BEFORE the CAS, so a
  /// recoverer can redo the identical switch (same sequence number) or
  /// compensate it after a death anywhere inside.
  bool try_switch(Pid exec, Pid owner, std::uint64_t expected_raw) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t seq =
        ann_seq(own.ann_desc.load(std::memory_order_seq_cst)) + 1;
    own.ann_pre.store(expected_raw, std::memory_order_seq_cst);
    own.ann_aux.store(kAuxNone, std::memory_order_seq_cst);
    own.ann_desc.store(ann_pack(seq, kAnnOpSwitch),
                       std::memory_order_seq_cst);
    return switch_attempt(exec, owner, seq);
  }

  /// The CAS half of a switch whose announcement is already journaled in
  /// `owner`'s slot — called by try_switch, and re-entered verbatim by the
  /// recovery redo path.
  bool switch_attempt(Pid exec, Pid owner, std::uint64_t seq) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t expected =
        own.ann_pre.load(std::memory_order_seq_cst);
    const Packed prev = unpack(expected);
    const std::uint32_t new_lock = static_cast<std::uint32_t>(
        own.held.load(std::memory_order_seq_cst));
    instances_[new_lock]->space.next_incarnation(exec);
    const std::uint64_t aux = own.ann_aux.load(std::memory_order_seq_cst);
    std::uint32_t new_spn;
    if (aux != kAuxNone) {
      new_spn = static_cast<std::uint32_t>(aux);
    } else {
      new_spn = pool_.select(exec, owner);
      own.ann_aux.store(new_spn, std::memory_order_seq_cst);
    }
    pool_.commit(new_spn);  // idempotent: covers a death before the mark
    help_landed(exec, expected);
    const std::uint64_t desired = pack_stamped(
        new_lock, new_spn, 0, static_cast<std::uint32_t>(owner), seq);
    if (space_.cas(exec, *lock_desc_, expected, desired)) {
      bump_landed(owner, seq);
      if (shm_ != nullptr) shm_->on_switch(stripe_id_, exec, new_lock);
      finish_switch_post(exec, owner, prev);
      return true;
    }
    pool_.unalloc(exec, owner, new_spn);
    own.ann_aux.store(kAuxNone, std::memory_order_seq_cst);
    return false;
  }

  /// Post-CAS steps of a landed switch: retire the replaced node and save
  /// the old instance as the next switch target. Both idempotent, so
  /// recovery re-runs them for a victim that died after its CAS landed.
  void finish_switch_post(Pid exec, Pid owner, const Packed& prev) {
    // Stays seq_cst (recovery may re-run it); still the release side the
    // spn waiters acquire.
    space_.write(exec, *pool_.node(prev.spn).go, 1);  // AML_V_EDGE(longlived.spn_switch)
    slots_[owner].held.store(prev.lock, std::memory_order_seq_cst);
    slots_[owner].ann_aux.store(kAuxNone, std::memory_order_seq_cst);
  }

  RecoveryAction recover_locked(Pid exec, Pid victim) {
    PassageSlot& v = slots_[victim];
    const std::uint64_t phase = v.phase.load(std::memory_order_seq_cst);
    const std::uint64_t att = v.attempt.load(std::memory_order_seq_cst);
    const std::uint32_t cur_inst = static_cast<std::uint32_t>(
        v.current.load(std::memory_order_seq_cst));
    switch (phase) {
      case kIdle:
      case kSpinWait:
        // No shared footprint: LockDesc untouched, no queue slot. The pid
        // can be re-leased as-is (its held/old_spn locals stay valid).
        finish_slot(v);
        return RecoveryAction::kNone;
      case kPreJoin: {
        // The join F&A is journaled (v3): decide post-mortem whether the
        // announced increment landed, then complete the passage (one
        // Cleanup undoes a bare join) or compensate (nothing to undo) —
        // never a zombie. A non-join announcement here is the *previous*
        // passage's release/switch, long landed and finished: every
        // passage announces its join before anything else, so a pending
        // join is always the newest announcement under kPreJoin.
        const std::uint64_t ann =
            v.ann_desc.load(std::memory_order_seq_cst);
        if (ann_op(ann) == kAnnOpJoin &&
            announced_landed(exec, victim, ann_seq(ann))) {
          recovered_cleanup(exec, victim);
          finish_slot(v);
          emit_recovery(obs::ShmEventKind::kFaCompleted, exec, victim,
                        obs::kNoSlot, cur_inst);
          return RecoveryAction::kForcedAbort;
        }
        const bool pending_join = ann_op(ann) == kAnnOpJoin;
        finish_slot(v);
        if (pending_join) {
          emit_recovery(obs::ShmEventKind::kFaCompensated, exec, victim,
                        obs::kNoSlot, cur_inst);
        }
        return RecoveryAction::kNone;
      }
      case kJoined: {
        // Refcnt is incremented but no doorway F&A happened: the passage
        // has no queue presence, so the repair is exactly one Cleanup.
        recovered_cleanup(exec, victim);
        finish_slot(v);
        emit_recovery(obs::ShmEventKind::kAbortOnBehalf, exec, victim,
                      obs::kNoSlot, cur_inst);
        return RecoveryAction::kForcedAbort;
      }
      case kDoorway: {
        if ((att & kAttemptRecorded) == 0) {
          // In the one-shot doorway but the tail F&A may or may not have
          // run (the sink journals immediately after it). This is the one
          // window the journal still cannot attribute; the pid is retired
          // and waits for epoch reclamation.
          emit_recovery(obs::ShmEventKind::kZombieRetire, exec, victim,
                        obs::kNoSlot, cur_inst);
          return RecoveryAction::kZombie;
        }
        const std::uint32_t slot = attempt_slot(att);
        const std::uint32_t inst_idx = attempt_instance(att);
        Instance& inst = *instances_[inst_idx];
        inst.space.begin_session(exec);
        // Granted if the victim acknowledged it, or if the signal already
        // landed in go[slot] (a signal racing the crash: the grant stands,
        // so the passage must be exited, not aborted — aborting would strand
        // the hand-off).
        const bool granted = (att & kAttemptGranted) != 0 ||
                             inst.lock.peek_go(exec, slot) != 0;
        if (granted) {
          inst.lock.complete_grant(exec, slot);
          inst.lock.exit(exec);
          recovered_cleanup(exec, victim);
          finish_slot(v);
          emit_recovery(obs::ShmEventKind::kCompleteGrant, exec, victim,
                        slot, inst_idx);
          return RecoveryAction::kForcedExit;
        }
        inst.lock.abort_on_behalf(exec, slot);
        recovered_cleanup(exec, victim);
        finish_slot(v);
        emit_recovery(obs::ShmEventKind::kAbortOnBehalf, exec, victim, slot,
                      inst_idx);
        return RecoveryAction::kForcedAbort;
      }
      case kHolding: {
        const std::uint32_t inst_idx = attempt_instance(att);
        Instance& inst = *instances_[inst_idx];
        inst.space.begin_session(exec);
        inst.lock.exit(exec);
        recovered_cleanup(exec, victim);
        finish_slot(v);
        emit_recovery(obs::ShmEventKind::kForcedExit, exec, victim,
                      attempt_slot(att), inst_idx);
        return RecoveryAction::kForcedExit;
      }
      case kReleasing: {
        const std::uint32_t inst_idx = attempt_instance(att);
        Instance& inst = *instances_[inst_idx];
        inst.space.begin_session(exec);
        const std::uint64_t head_snap =
            v.head_snap.load(std::memory_order_seq_cst);
        RecoveryAction action;
        obs::ShmEventKind kind;
        if (inst.lock.peek_last_exited(exec) != head_snap) {
          // Died before LastExited was written: redo the whole exit.
          inst.lock.exit(exec);
          action = RecoveryAction::kForcedExit;
          kind = obs::ShmEventKind::kForcedExit;
        } else {
          // LastExited written; the SignalNext may or may not have run.
          // FindNext from the same head re-finds the same successor (exit
          // never removes the head from the tree) and a duplicate go write
          // is absorbed, so re-driving it is safe either way.
          inst.lock.resignal_from(exec, static_cast<std::uint32_t>(head_snap));
          action = RecoveryAction::kResignalled;
          kind = obs::ShmEventKind::kResignal;
        }
        recovered_cleanup(exec, victim);
        finish_slot(v);
        emit_recovery(kind, exec, victim, attempt_slot(att), inst_idx);
        return action;
      }
      case kCleanup:
        return recover_cleanup_arm(exec, victim, v, att, cur_inst);
      default:
        AML_ASSERT(false, "corrupt phase word in recovery");
        return RecoveryAction::kZombie;
    }
  }

  /// Death inside Cleanup (v3): the journal names exactly which step was in
  /// flight — the release F&A (announced / landed) or the instance-switch
  /// CAS (announced, with its pre-image and chosen node) — and every arm
  /// either completes the landed op forward or compensates the un-landed
  /// one. Never a zombie.
  RecoveryAction recover_cleanup_arm(Pid exec, Pid victim, PassageSlot& v,
                                     std::uint64_t att,
                                     std::uint32_t cur_inst) {
    const RecoveryAction action = (att & kAttemptGranted) != 0
                                      ? RecoveryAction::kForcedExit
                                      : RecoveryAction::kForcedAbort;
    const std::uint32_t slot =
        (att & kAttemptRecorded) != 0 ? attempt_slot(att) : obs::kNoSlot;
    const std::uint64_t ann = v.ann_desc.load(std::memory_order_seq_cst);
    const std::uint64_t seq = ann_seq(ann);
    obs::ShmEventKind kind = obs::ShmEventKind::kFaCompensated;
    switch (ann_op(ann)) {
      case kAnnOpSwitch: {
        // The release already landed (a switch is only announced after its
        // release returned); the victim died inside the switch.
        const std::uint64_t pre_raw =
            v.ann_pre.load(std::memory_order_seq_cst);
        const Packed pre = unpack(pre_raw);
        v.old_spn.store(pre.spn, std::memory_order_seq_cst);
        if (announced_landed(exec, victim, seq)) {
          finish_switch_post(exec, victim, pre);
          kind = obs::ShmEventKind::kFaCompleted;
        } else if (space_.read(exec, *lock_desc_) == pre_raw) {
          // Word untouched since the announcement: redo the same switch
          // under the same sequence number.
          kind = switch_attempt(exec, victim, seq)
                     ? obs::ShmEventKind::kFaCompleted
                     : obs::ShmEventKind::kFaCompensated;
        } else {
          // A joiner moved the word: the switch must be abandoned. Free
          // the journaled node if one was chosen.
          const std::uint64_t aux =
              v.ann_aux.load(std::memory_order_seq_cst);
          if (aux != kAuxNone) {
            pool_.unalloc(exec, victim, static_cast<std::uint32_t>(aux));
            v.ann_aux.store(kAuxNone, std::memory_order_seq_cst);
          }
        }
        break;
      }
      case kAnnOpRelease: {
        if (!announced_landed(exec, victim, seq)) {
          // The decrement never landed: the whole Cleanup simply reruns
          // under a fresh announcement.
          recovered_cleanup(exec, victim);
          break;
        }
        // Decrement landed; the victim died before (or while) saving its
        // locals and switching. Finish both from the journaled pre-image.
        const std::uint64_t pre_raw =
            v.ann_pre.load(std::memory_order_seq_cst);
        const Packed pre = unpack(pre_raw);
        v.old_spn.store(pre.spn, std::memory_order_seq_cst);
        if (pre.refcnt == 1) {
          // Last leaver: the switch was never announced — run it fresh
          // against the release's post-image.
          try_switch(exec, victim,
                     pack_stamped(pre.lock, pre.spn, 0,
                                  static_cast<std::uint32_t>(victim), seq));
        }
        kind = obs::ShmEventKind::kFaCompleted;
        break;
      }
      default:
        // Death right at the kCleanup phase store, before the release was
        // announced (the announcement is still the passage's landed join):
        // nothing is in flight; run the Cleanup from scratch.
        recovered_cleanup(exec, victim);
        break;
    }
    finish_slot(v);
    emit_recovery(kind, exec, victim, slot, cur_inst);
    return action;
  }

  /// Exactly one typed event per dispatch arm, victim pid in the payload —
  /// emitted after the repair steps so a reader that sees the event also
  /// sees the repaired stripe state.
  void emit_recovery(obs::ShmEventKind kind, Pid exec, Pid victim,
                     std::uint32_t slot, std::uint32_t instance) {
    if (shm_ != nullptr) {
      shm_->on_recovery_arm(kind, stripe_id_, exec, victim, slot, instance);
    }
  }

  void recovered_cleanup(Pid exec, Pid victim) {
    slots_[victim].phase.store(kCleanup, std::memory_order_seq_cst);
    cleanup_impl(exec, victim);
  }

  static void finish_slot(PassageSlot& v) {
    v.attempt.store(0, std::memory_order_seq_cst);
    v.phase.store(kIdle, std::memory_order_seq_cst);
  }

  // Per-stripe recovery seqlock: (sequence << 32) | holder_os_pid, free
  // when the low half is 0. A claimant CASes its OS pid in; if the recorded
  // holder is itself dead (ESRCH), the claim is taken over under the same
  // sequence — a crashed *recoverer* must not wedge the stripe forever.
  void lock_recovery(Pid exec, std::uint64_t exec_os_pid) {
    for (;;) {
      const std::uint64_t cur = space_.read(exec, *recovery_);
      const std::uint64_t holder = cur & 0xFFFF'FFFFull;
      if (holder == 0) {
        if (space_.cas(exec, *recovery_, cur,
                       (cur & ~0xFFFF'FFFFull) | exec_os_pid)) {
          return;
        }
        continue;
      }
      if (::kill(static_cast<pid_t>(holder), 0) == -1 && errno == ESRCH) {
        if (space_.cas(exec, *recovery_, cur,
                       (cur & ~0xFFFF'FFFFull) | exec_os_pid)) {
          return;
        }
        continue;
      }
      ::sched_yield();
    }
  }

  void unlock_recovery(Pid exec) {
    const std::uint64_t cur = space_.read(exec, *recovery_);
    space_.write(exec, *recovery_, ((cur >> 32) + 1) << 32);
  }

  ShmSpace& space_;
  Config config_;
  ShmSpinNodePool pool_;
  std::vector<std::unique_ptr<Instance>> instances_;
  PassageSlot* slots_ = nullptr;        ///< shm, one per pid
  ShmSpace::Word* lock_desc_ = nullptr;
  ShmSpace::Word* recovery_ = nullptr;  ///< per-stripe recovery seqlock
  obs::ShmMetrics* shm_ = nullptr;  ///< segment-hosted sink (crash-surviving)
  std::uint32_t stripe_id_ = 0;
};

}  // namespace aml::ipc
