// ShmStripeLockT: the shm stripe lock with owner-death recovery. It is
// core::LongLivedLock instantiated over ShmSpace with the ShmJournal policy
// (ipc/shm_journal.hpp), which journals every step into shm so a survivor
// can finish a dead process's passage. This class adds only the recovery
// driver, its per-stripe seqlock, and test hooks that forge crash windows.
//
// Recovery model (crash = forced abort, after Katzan & Morrison's
// recoverable-abortable lock, arxiv.org/2011.07622): a recoverer holding the
// victim's registry claim (process_registry.hpp) resumes the passage at the
// journaled phase with the *same steps* the victim would have run:
// abort_on_behalf for a waiter, complete_grant + exit for a granted victim,
// exit for a holder, resignal mid-hand-off — then the core lock's own
// Cleanup on the victim's behalf. Each reused step is idempotent or
// exactly-once by phase (docs/API.md has the state machine); the pre-join
// and cleanup arms complete or compensate an announced F&A or switch.
//
// One window remains journal-blind: inside the one-shot doorway before the
// sink records the tail F&A's slot (kDoorway, attempt unrecorded). A death
// there retires the pid for good (kZombie is terminal; see
// process_registry.hpp). Only the victim's registry claimant repairs, and
// only stripes the victim left a footprint on, one recoverer at a time
// (per-stripe seqlock with dead-holder takeover).
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>

#include <sched.h>
#include <signal.h>

#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/core/versioned_space.hpp"
#include "aml/ipc/shm_journal.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/obs/shm_metrics.hpp"
#include "aml/pal/config.hpp"

namespace aml::ipc {

/// What a recovery pass did with a victim's passage on one stripe.
enum class RecoveryAction : std::uint8_t {
  kNone,         ///< victim was idle / pre-doorway here: nothing to repair
  kForcedAbort,  ///< waiting victim driven through the abort path
  kForcedExit,   ///< granted/holding victim's CS force-exited + cleaned up
  kResignalled,  ///< death mid-exit: hand-off re-driven from head_snap
  kZombie,       ///< death in the doorway before the sink's slot record —
                 ///  the one remaining journal-blind window; pid retired
                 ///  for good (see registry)
};

/// The one long-lived transformation, journaled for crash recovery.
using ShmLongLivedLock =
    core::LongLivedLock<ShmSpace, core::VersionedSpace, core::OneShotLock,
                        RecoverySink, ShmJournal>;

/// Each attached process keeps its own VersionedSpace session/cursor caches
/// over the same shm words: the cursor divergence is benign (wraparound
/// period 2^63 reuses at W = 64), and the equality-only version compare
/// makes a redone switch's extra next_incarnation harmless.
///
/// `Metrics` is kept for source compatibility with code that names the
/// stripe by sink type; passages report only through set_shm_metrics.
template <typename Metrics = obs::NullMetrics>
class ShmStripeLockT : private ShmLongLivedLock {
  using Base = ShmLongLivedLock;
  using Desc = ShmJournal::Desc;

 public:
  using Config = Base::Config;
  using Base::config;
  using Base::enter;  // Algorithm 6.1, journaled
  using Base::exit;   // Algorithm 6.2, journaled
  using Base::peek_installed;
  using Base::peek_refcnt;

  /// Both roles run the identical construction (deterministic replay); only
  /// the creator stores initial values (words, spin-node marks,
  /// PassageSlots). Arena order: spin-node pool (go words, announce words,
  /// marks), passage slots, instances, LockDesc, then the recovery word.
  ShmStripeLockT(ShmSpace& space, Config config)
      : Base(space, config), recovery_(space.alloc(1, 0)) {}

  /// Bind the segment-hosted sink (crash-surviving: see obs/shm_metrics.hpp).
  /// `stripe_id` tags every event this stripe emits into the segment's rings.
  void set_shm_metrics(obs::ShmMetrics* shm, std::uint32_t stripe_id) {
    journal_.bind_shm(shm, stripe_id);
    obs_.bind(&journal_.sink(0));
  }

  // --- recovery ----------------------------------------------------------

  /// Repair `victim`'s passage on this stripe, executing as `exec` (the
  /// recoverer's leased pid does every memory operation; the victim pid only
  /// names the journal). Caller must hold the victim's registry claim, so
  /// only it writes the victim's journal. kIdle and kSpinWait left no shared
  /// footprint (LockDesc untouched, no queue slot): no seqlock, no event.
  /// kZombie means the victim died in the journal-blind doorway window and
  /// its pid must be retired.
  RecoveryAction recover(Pid exec, Pid victim, std::uint64_t exec_os_pid) {
    const Phase phase = peek_phase(victim);
    if (phase == kIdle) return RecoveryAction::kNone;
    if (phase == kSpinWait) {
      // The pid can be re-leased as-is (its held/old_spn locals stay valid).
      finish_slot(victim);
      return RecoveryAction::kNone;
    }
    lock_recovery(exec, exec_os_pid);
    const RecoveryAction action = recover_locked(exec, victim, phase);
    unlock_recovery(exec);
    return action;
  }

  // --- introspection -----------------------------------------------------

  Phase peek_phase(Pid p) const {
    return static_cast<Phase>(
        journal_.slot(p).phase.load(std::memory_order_seq_cst));
  }
  /// Repairs run on this stripe (seqlock sequence number): one per victim
  /// with a passage in flight here, none for a victim idle or spinning.
  std::uint64_t recovery_epoch(Pid self) {
    return mem_.read(self, *recovery_) >> 32;
  }

  /// Refcnt units no journaled passage could hold. kPreJoin counts as a
  /// holder (a live joiner's F&A can land before its kJoined store), so a
  /// transient race never inflates the number.
  std::uint64_t stranded_units(Pid probe) {
    const std::uint64_t refcnt = peek_refcnt(probe);
    std::uint64_t holders = 0;
    for (Pid p = 0; p < config().nprocs; ++p) {
      const Phase ph = peek_phase(p);
      if (ph >= kPreJoin && ph <= kCleanup) holders++;
    }
    return refcnt > holders ? refcnt - holders : 0;
  }

  /// Test hook: forge a pid's journaled phase so recovery arms can be
  /// staged without a precisely-timed crash.
  void debug_set_phase(Pid p, Phase phase) {
    journal_.slot(p).phase.store(phase, std::memory_order_seq_cst);
  }

  /// Test hook: the kJoined crash window for `p` — join F&A landed, current
  /// recorded, no doorway presence yet — as real, consistent stripe state
  /// that recovery's one Cleanup undoes completely.
  void debug_forge_joined(Pid p) {
    PassageSlot& my = journal_.slot(p);
    my.attempt.store(0, std::memory_order_seq_cst);
    const auto jr = journal_.join(mem_, p, p, *lock_desc_);
    my.current.store(jr.pre.lock, std::memory_order_seq_cst);
    my.phase.store(kJoined, std::memory_order_seq_cst);
  }

  /// Test hook: death at kPreJoin with the join announced but its CAS never
  /// issued. The compensation arm must conclude "did not land" and abandon
  /// the join (refcnt untouched).
  void debug_forge_prejoin_announced(Pid p) {
    PassageSlot& my = journal_.slot(p);
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
    PassageSlot& my = journal_.slot(p);
    my.attempt.store(0, std::memory_order_seq_cst);
    my.phase.store(kPreJoin, std::memory_order_seq_cst);
    journal_.join(mem_, p, p, *lock_desc_);
  }

  /// Test hook: death at kCleanup before the release was announced. The
  /// recovery arm must rerun the whole Cleanup under a fresh announcement.
  void debug_forge_cleanup_announced(Pid p) {
    debug_forge_joined(p);
    PassageSlot& my = journal_.slot(p);
    my.phase.store(kCleanup, std::memory_order_seq_cst);
    const std::uint64_t seq =
        ann_seq(my.ann_desc.load(std::memory_order_seq_cst)) + 1;
    my.ann_desc.store(ann_pack(seq, kAnnOpRelease),
                      std::memory_order_seq_cst);
  }

  /// Test hook: death at kCleanup right after the release CAS landed —
  /// locals unsaved, instance switch (if owed) not yet announced. The
  /// completion arm must finish both from the journaled pre-image.
  void debug_forge_cleanup_released(Pid p) { forge_release(p); }

  /// Test hook: death at kCleanup with the release landed and the instance
  /// switch announced but its CAS never issued. Recovery must redo the very
  /// same switch (same sequence number) or compensate if the world moved.
  void debug_forge_cleanup_switch_announced(Pid p) {
    const auto r = forge_release(p);
    journal_.slot(p).old_spn.store(r.pre.spn, std::memory_order_seq_cst);
    if (r.pre.refcnt != 1) return;  // forge needs sole membership to switch
    journal_.announce_switch(p, r.post);
  }

  /// Test hook: `owner` died inside a spin-node reclaim scan, once per
  /// reclaimable node, each time after the go reset and before the free
  /// mark. The pool must finish those nodes instead of leaking them.
  void debug_forge_torn_reclaim(Pid owner) {
    spin_pool_.debug_reclaim_torn(owner, owner);
  }

 private:
  /// A joined passage of `p` whose Cleanup has pinned and landed its
  /// release, then died.
  ShmJournal::Rmw forge_release(Pid p) {
    debug_forge_joined(p);
    journal_.slot(p).phase.store(kCleanup, std::memory_order_seq_cst);
    const Desc pinned = Desc::unpack(mem_.read(p, *lock_desc_));
    journal_.publish_pin(mem_, spin_pool_, p, p, pinned.spn);
    return journal_.release(mem_, p, p, *lock_desc_);
  }

  /// The arms that repair stripe state, one per phase from kPreJoin on.
  RecoveryAction recover_locked(Pid exec, Pid victim, Phase phase) {
    PassageSlot& v = journal_.slot(victim);
    const std::uint64_t att = v.attempt.load(std::memory_order_seq_cst);
    const std::uint32_t cur_inst = static_cast<std::uint32_t>(
        v.current.load(std::memory_order_seq_cst));
    const std::uint32_t slot = attempt_slot(att);
    const std::uint32_t inst_idx = attempt_instance(att);
    using K = obs::EventKind;
    switch (phase) {
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
            landed(exec, victim, ann_seq(ann))) {
          return settle(exec, victim, K::kFaCompleted, obs::kNoSlot,
                        cur_inst, RecoveryAction::kForcedAbort);
        }
        finish_slot(victim);
        if (ann_op(ann) == kAnnOpJoin) {
          emit_recovery(K::kFaCompensated, exec, victim, obs::kNoSlot,
                        cur_inst);
        }
        return RecoveryAction::kNone;
      }
      case kJoined:
        // Refcnt is incremented but no doorway F&A happened: the passage
        // has no queue presence, so the repair is exactly one Cleanup.
        return settle(exec, victim, K::kAbortOnBehalf, obs::kNoSlot,
                      cur_inst, RecoveryAction::kForcedAbort);
      case kDoorway: {
        if ((att & kAttemptRecorded) == 0) {
          // In the one-shot doorway but the tail F&A may or may not have
          // run (the sink journals immediately after it). This is the one
          // window the journal still cannot attribute; the pid is retired
          // for good.
          emit_recovery(K::kZombieRetire, exec, victim, obs::kNoSlot,
                        cur_inst);
          return RecoveryAction::kZombie;
        }
        auto& lock = resume(exec, inst_idx);
        // Granted if the victim acknowledged it, or if the signal already
        // landed in go[slot] (a signal racing the crash: the grant stands,
        // so the passage must be exited, not aborted — aborting would strand
        // the hand-off).
        if ((att & kAttemptGranted) != 0 || lock.peek_go(exec, slot) != 0) {
          lock.complete_grant(exec, slot);
          lock.exit(exec);
          return settle(exec, victim, K::kCompleteGrant, slot, inst_idx,
                        RecoveryAction::kForcedExit);
        }
        lock.abort_on_behalf(exec, slot);
        return settle(exec, victim, K::kAbortOnBehalf, slot, inst_idx,
                      RecoveryAction::kForcedAbort);
      }
      case kHolding:
        resume(exec, inst_idx).exit(exec);
        return settle(exec, victim, K::kForcedExit, slot, inst_idx,
                      RecoveryAction::kForcedExit);
      case kReleasing: {
        auto& lock = resume(exec, inst_idx);
        const std::uint64_t head_snap =
            v.head_snap.load(std::memory_order_seq_cst);
        if (lock.peek_last_exited(exec) != head_snap) {
          // Died before LastExited was written: redo the whole exit.
          lock.exit(exec);
          return settle(exec, victim, K::kForcedExit, slot, inst_idx,
                        RecoveryAction::kForcedExit);
        }
        // LastExited written; the SignalNext may or may not have run.
        // FindNext from the same head re-finds the same successor (exit
        // never removes the head from the tree) and a duplicate go write
        // is absorbed, so re-driving it is safe either way.
        lock.resignal_from(exec, static_cast<std::uint32_t>(head_snap));
        return settle(exec, victim, K::kResignal, slot, inst_idx,
                      RecoveryAction::kResignalled);
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
    obs::EventKind kind = obs::EventKind::kFaCompensated;
    switch (ann_op(ann)) {
      case kAnnOpSwitch: {
        // The release already landed (a switch is only announced after its
        // release returned); the victim died inside the switch.
        const std::uint64_t pre_raw =
            v.ann_pre.load(std::memory_order_seq_cst);
        const Desc pre = Desc::unpack(pre_raw);
        v.old_spn.store(pre.spn, std::memory_order_seq_cst);
        if (landed(exec, victim, seq)) {
          finish_switch(exec, victim, pre);
          kind = obs::EventKind::kFaCompleted;
        } else if (mem_.read(exec, *lock_desc_) == pre_raw) {
          // Word untouched since the announcement: redo the same switch
          // under the same sequence number.
          kind = switch_attempt(exec, victim, pre_raw, seq)
                     ? obs::EventKind::kFaCompleted
                     : obs::EventKind::kFaCompensated;
        } else {
          // A joiner moved the word: the switch must be abandoned. Free
          // the journaled node if one was chosen.
          const std::uint64_t aux =
              v.ann_aux.load(std::memory_order_seq_cst);
          if (aux != kAuxNone) {
            journal_.abandon_switch(spin_pool_, exec, victim,
                                    static_cast<std::uint32_t>(aux));
          }
        }
        break;
      }
      case kAnnOpRelease: {
        if (!landed(exec, victim, seq)) {
          // The decrement never landed: the whole Cleanup simply reruns
          // under a fresh announcement.
          recovered_cleanup(exec, victim);
          break;
        }
        // Decrement landed; the victim died before (or while) saving its
        // locals and switching. Finish both from the journaled pre-image.
        const std::uint64_t pre_raw =
            v.ann_pre.load(std::memory_order_seq_cst);
        const Desc pre = Desc::unpack(pre_raw);
        v.old_spn.store(pre.spn, std::memory_order_seq_cst);
        if (pre.refcnt == 1) {
          // Last leaver: the switch was never announced — run it fresh
          // against the release's post-image.
          try_switch(exec, victim,
                     Desc::pack(pre.lock, pre.spn, 0,
                                static_cast<std::uint32_t>(victim), seq));
        }
        kind = obs::EventKind::kFaCompleted;
        break;
      }
      default:
        // Death right at the kCleanup phase store, before the release was
        // announced (the announcement is still the passage's landed join):
        // nothing is in flight; run the Cleanup from scratch.
        recovered_cleanup(exec, victim);
        break;
    }
    finish_slot(victim);
    emit_recovery(kind, exec, victim, slot, cur_inst);
    return action;
  }

  /// Exactly one typed event per dispatch arm, victim pid in the payload —
  /// emitted after the repair steps so a reader that sees the event also
  /// sees the repaired stripe state.
  void emit_recovery(obs::EventKind kind, Pid exec, Pid victim,
                     std::uint32_t slot, std::uint32_t instance) {
    if (obs::ShmMetrics* shm = journal_.shm()) {
      shm->on_recovery_arm(kind, journal_.stripe(), exec, victim, slot,
                           instance);
    }
  }

  bool landed(Pid exec, Pid victim, std::uint64_t seq) {
    return journal_.announced_landed(mem_, exec, victim, seq, *lock_desc_);
  }

  /// The victim's one-shot instance, entered as `exec` for a repair.
  auto& resume(Pid exec, std::uint32_t inst_idx) {
    Instance& inst = *instances_[inst_idx];
    inst.space.begin_session(exec);
    return inst.lock;
  }

  void recovered_cleanup(Pid exec, Pid victim) {
    journal_.phase(victim, kCleanup);
    cleanup(exec, victim);
  }

  void finish_slot(Pid victim) { journal_.phase(victim, kIdle); }

  /// Close a repaired passage: the ordinary Cleanup, an idle slot, and the
  /// arm's event.
  RecoveryAction settle(Pid exec, Pid victim, obs::EventKind kind,
                        std::uint32_t slot, std::uint32_t inst,
                        RecoveryAction action) {
    recovered_cleanup(exec, victim);
    finish_slot(victim);
    emit_recovery(kind, exec, victim, slot, inst);
    return action;
  }

  // Per-stripe recovery seqlock: (sequence << 32) | holder_os_pid, free
  // when the low half is 0. A claimant CASes its OS pid in; if the recorded
  // holder is itself dead (ESRCH), the claim is taken over under the same
  // sequence — a crashed *recoverer* must not wedge the stripe forever.
  void lock_recovery(Pid exec, std::uint64_t exec_os_pid) {
    for (;;) {
      const std::uint64_t cur = mem_.read(exec, *recovery_);
      const std::uint64_t holder = cur & 0xFFFF'FFFFull;
      if (holder == 0 ||
          (::kill(static_cast<pid_t>(holder), 0) == -1 && errno == ESRCH)) {
        if (mem_.cas(exec, *recovery_, cur,
                     (cur & ~0xFFFF'FFFFull) | exec_os_pid)) {
          return;
        }
        continue;
      }
      ::sched_yield();
    }
  }

  void unlock_recovery(Pid exec) {
    const std::uint64_t cur = mem_.read(exec, *recovery_);
    mem_.write(exec, *recovery_, ((cur >> 32) + 1) << 32);
  }

  ShmSpace::Word* recovery_ = nullptr;  ///< per-stripe recovery seqlock
};

}  // namespace aml::ipc
