// ShmJournal: the crash-recoverable Journal policy of core::LongLivedLock,
// which makes it the shm stripe (ipc::ShmStripeLockT). At the core hooks:
//   * phase is a seq_cst store into the pid's PassageSlot before each step
//     (kSpinWait and kIdle clear the attempt word first), and snap_head
//     records the one-shot head before Exit;
//   * the locals (held / old_spn / current) live in the PassageSlot, where a
//     survivor or the pid's next leaseholder reads them;
//   * join / release are recoverable F&As, and the switch's expected word
//     and spin node are journaled before its CAS;
//   * attach gives each instance a RecoverySink that journals the doorway's
//     slot and the grant, and binds the spin-node pool (core::SpinNodePool,
//     whose marks sit in the arena over ShmSpace) to instance 0's sink;
//   * switch_node journals the chosen spin node between the pool's select
//     and commit, and publish_pin keeps the pin store seq_cst.
//
// Recoverable fetch-and-add (after Katzan & Morrison's recoverable-abortable
// lock, arxiv.org/2011.07622): before touching the word, the caller
// announces the operation in its own PassageSlot — op kind + sequence number
// in `ann_desc`, then on every attempt the pre-image in `ann_pre` — and
// performs the F&A as a CAS that stamps (pid, seq) into reserved LockDesc
// bits. Two rules make the outcome decidable post-mortem:
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
// neither holds, the CAS never succeeded. The stamp sequence is truncated to
// 24 bits in the word, so the in-word test alone is ambiguous only after
// 2^24 full passages inside one recoverer read — far beyond the claim hold
// time (same bounded-reuse assumption as the 32-bit recovery seqlock).
//
// Memory visibility across processes: a victim writes its plain journal
// fields (head_snap, current, ann_pre) before the seq_cst phase/announce
// store that makes them relevant, and the recoverer seq_cst-loads the phase
// before reading them, so every journal read is ordered after the matching
// write.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "aml/core/longlived.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/shm_metrics.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"

namespace aml::ipc {

using model::Pid;
using core::Phase;
using enum core::Phase;

/// Render any phase word. One this build does not know (a newer layout)
/// comes back as "unknown(<n>)", so an older reader still inspects it.
inline std::string phase_name(std::uint64_t p) {
  static constexpr const char* kNames[] = {
      "idle",    "spin-wait", "pre-join",  "joined",
      "doorway", "holding",   "releasing", "cleanup"};
  if (p < std::size(kNames)) return kNames[p];
  return "unknown(" + std::to_string(p) + ")";
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

/// The per-instance metrics sink: journals the doorway's slot and the grant
/// into the passage slots, and forwards every hook to the segment-hosted
/// obs::ShmMetrics when bound, so passages (recovered ones included) survive
/// the process. Its writes land in the acting pid's own cells. Instance 0's
/// sink doubles as the lock-level sink (spin-node waits and their aborts,
/// and the spin-node pool's recycles).
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
  void on_switch(Pid) {}  // ShmJournal::landed_switch knows the instance
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

/// The journal policy (hook contract: core::NullJournal). During recovery
/// the recoverer executes, but the announcement, stamp and locals stay the
/// *owner's*, so a recoverer that dies leaves one coherent journal.
class ShmJournal {
 public:
  // LockDesc: Refcnt 8 | Spn 16 | Lock 8 | StampPid 8 | StampSeq 24.
  using Desc = core::DescLayout<8, 16, 8, 8, 24>;
  using Rmw = core::DescRmw<Desc>;
  using Word = ShmSpace::Word;

  /// The locals, in the slots a survivor or the pid's next leaseholder reads.
  class Locals {
   public:
    Locals(ShmJournal& journal, Pid) : slots_(journal.slots_) {}
    std::uint32_t old_spn(Pid p) const { return get(p, &S::old_spn); }
    void set_old_spn(Pid p, std::uint32_t v) { put(p, &S::old_spn, v); }
    std::uint32_t current(Pid p) const { return get(p, &S::current); }
    void set_current(Pid p, std::uint32_t v) { put(p, &S::current, v); }
    std::uint32_t held(Pid p) const { return get(p, &S::held); }
    /// Hold the replaced instance; the switch's journaled node is spent.
    void switched(Pid p, std::uint32_t prev) {
      put(p, &S::held, prev);
      put(p, &S::ann_aux, kAuxNone);
    }

   private:
    using S = PassageSlot;
    std::uint32_t get(Pid p, std::atomic<std::uint64_t> S::*f) const {
      return static_cast<std::uint32_t>(
          (slots_[p].*f).load(std::memory_order_seq_cst));
    }
    void put(Pid p, std::atomic<std::uint64_t> S::*f, std::uint64_t v) {
      (slots_[p].*f).store(v, std::memory_order_seq_cst);
    }
    PassageSlot* slots_;
  };

  /// Allocated after the spin-node pool and before the instances (the
  /// arena's replay order). The creator's zero-filled pages already read as
  /// idle slots; only the non-zero locals need a store.
  ShmJournal(ShmSpace& space, Pid nprocs)
      : nprocs_(nprocs),
        slots_(space.arena().alloc_array<PassageSlot>(nprocs)),
        sinks_(nprocs + 1) {
    for (Pid p = 0; space.arena().creating() && p < nprocs; ++p) {
      slots_[p].held.store(p + 1, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      slots_[p].old_spn.store(core::kNoSpn, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      slots_[p].ann_aux.store(kAuxNone, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
    }
  }

  PassageSlot& slot(Pid p) { return slots_[p]; }
  const PassageSlot& slot(Pid p) const { return slots_[p]; }
  RecoverySink& sink(std::uint32_t instance) { return sinks_[instance]; }
  obs::ShmMetrics* shm() const { return shm_; }
  std::uint32_t stripe() const { return stripe_; }

  /// Route every instance's events, and this journal's, into `shm`.
  void bind_shm(obs::ShmMetrics* shm, std::uint32_t stripe) {
    shm_ = shm;
    stripe_ = stripe;
    for (RecoverySink& s : sinks_) s.bind_shm(shm, stripe);
  }

  // --- hooks -------------------------------------------------------------

  /// Instance 0's sink doubles as the lock-level sink, so the spin-node
  /// pool reports its recycles through it too.
  template <typename Lock, typename P>
  void attach(std::uint32_t instance, Lock& lock, P& pool) {
    sinks_[instance].configure(slots_, instance);
    lock.set_metrics(&sinks_[instance]);
    if (instance == 0) pool.set_metrics(&sinks_[0]);
  }

  void phase(Pid p, Phase ph) {
    // A passage starts and ends with no doorway record.
    if (ph == kSpinWait || ph == kIdle) {
      slots_[p].attempt.store(0, std::memory_order_seq_cst);
    }
    slots_[p].phase.store(ph, std::memory_order_seq_cst);
  }
  template <typename Lock>
  void snap_head(Pid p, Lock& lock) {
    slots_[p].head_snap.store(lock.peek_head(p), std::memory_order_seq_cst);
  }

  Rmw join(ShmSpace& space, Pid exec, Pid owner, Word& desc) {
    return recoverable_rmw(space, exec, owner, desc, kAnnOpJoin);
  }
  Rmw release(ShmSpace& space, Pid exec, Pid owner, Word& desc) {
    return recoverable_rmw(space, exec, owner, desc, kAnnOpRelease);
  }

  /// The pin lands in the *owner's* announce word (a recoverer pins for
  /// the pid's next leaseholder) and stays a seq_cst store, like the rest
  /// of the journal a recoverer reads post-mortem.
  template <typename P>
  void publish_pin(ShmSpace& space, P& pool, Pid exec, Pid owner,
                   std::uint32_t spn) {
    space.write(exec, pool.pin(owner), spn);
  }
  /// The switch as a journaled announcement: ann_pre takes the expected
  /// word (and ann_aux, below, the chosen spin node) BEFORE the CAS, so a
  /// recoverer can redo the identical switch (same sequence number) or
  /// compensate it after a death anywhere inside.
  std::uint64_t announce_switch(Pid owner, std::uint64_t expected) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t seq =
        ann_seq(own.ann_desc.load(std::memory_order_seq_cst)) + 1;
    own.ann_pre.store(expected, std::memory_order_seq_cst);
    own.ann_aux.store(kAuxNone, std::memory_order_seq_cst);
    own.ann_desc.store(ann_pack(seq, kAnnOpSwitch), std::memory_order_seq_cst);
    return seq;
  }
  /// The pool's select and commit with the choice journaled in ann_aux
  /// between them; commit is idempotent, so it covers a death before it.
  template <typename P>
  std::uint32_t switch_node(P& pool, Pid exec, Pid owner,
                            std::uint64_t expected) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t aux = own.ann_aux.load(std::memory_order_seq_cst);
    std::uint32_t spn;
    if (aux != kAuxNone) {  // a redo reuses the journaled choice
      spn = static_cast<std::uint32_t>(aux);
    } else {
      spn = pool.select(exec, owner);
      own.ann_aux.store(spn, std::memory_order_seq_cst);
    }
    pool.commit(exec, owner, spn);
    help_landed(expected);
    return spn;
  }
  template <typename P>
  void abandon_switch(P& pool, Pid exec, Pid owner, std::uint32_t spn) {
    pool.unalloc(exec, owner, spn);
    slots_[owner].ann_aux.store(kAuxNone, std::memory_order_seq_cst);
  }
  void landed_switch(Pid exec, Pid owner, std::uint64_t seq,
                     std::uint32_t new_lock) {
    bump_landed(owner, seq);
    if (shm_ != nullptr) shm_->on_switch(stripe_, exec, new_lock);
  }
  /// Stays seq_cst (recovery may re-run it); still the release side the
  /// spn waiters acquire.
  void retire(ShmSpace& space, Pid exec, Word& go) {
    space.write(exec, go, 1);  // AML_V_EDGE(longlived.spn_switch)
  }

  /// Did `victim`'s announced op `seq` land? Word first, landed second — a
  /// concurrent overwrite between the two loads has already credited
  /// `landed`.
  bool announced_landed(ShmSpace& space, Pid exec, Pid victim,
                        std::uint64_t seq, Word& desc) {
    const Desc d = Desc::unpack(space.read(exec, desc));
    if (d.stamp_pid == static_cast<std::uint32_t>(victim) &&
        d.stamp_seq == (seq & Desc::kStampSeqMask)) {
      return true;
    }
    return slots_[victim].landed.load(std::memory_order_seq_cst) >= seq;
  }

 private:
  /// The recoverable F&A (file header): announce in `owner`'s slot, then
  /// CAS-with-stamp until it lands.
  Rmw recoverable_rmw(ShmSpace& space, Pid exec, Pid owner, Word& desc,
                      std::uint64_t op) {
    PassageSlot& own = slots_[owner];
    const std::uint64_t seq =
        ann_seq(own.ann_desc.load(std::memory_order_seq_cst)) + 1;
    own.ann_desc.store(ann_pack(seq, op), std::memory_order_seq_cst);
    for (;;) {
      const std::uint64_t w = space.read(exec, desc);
      help_landed(w);
      own.ann_pre.store(w, std::memory_order_seq_cst);
      const Desc p = Desc::unpack(w);
      AML_DASSERT(op == kAnnOpJoin ? p.refcnt < Desc::kMaxProcs
                                   : p.refcnt >= 1,
                  "LockDesc refcnt out of range in recoverable F&A");
      const std::uint32_t refcnt =
          op == kAnnOpJoin ? p.refcnt + 1 : p.refcnt - 1;
      const std::uint64_t desired = Desc::pack(
          p.lock, p.spn, refcnt, static_cast<std::uint32_t>(owner), seq);
      if (space.cas(exec, desc, w, desired)) {
        bump_landed(owner, seq);
        return {p, desired};
      }
    }
  }

  /// Helping rule 1: before a word stamped (q, s) can be overwritten, the
  /// overwriter credits q's announcement if it is still the announced op.
  /// (If q has already announced a later op, q itself recorded s via rule 2
  /// before announcing, so nothing is lost by skipping.)
  void help_landed(std::uint64_t w) {
    const Desc p = Desc::unpack(w);
    if (p.stamp_pid >= static_cast<std::uint32_t>(nprocs_)) return;
    const Pid q = static_cast<Pid>(p.stamp_pid);
    const std::uint64_t ann =
        slots_[q].ann_desc.load(std::memory_order_seq_cst);
    if ((ann_seq(ann) & Desc::kStampSeqMask) == p.stamp_seq) {
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

  Pid nprocs_;
  PassageSlot* slots_;  ///< shm, one per pid
  std::vector<RecoverySink> sinks_;  ///< one per one-shot instance
  obs::ShmMetrics* shm_ = nullptr;  ///< segment-hosted sink (crash-surviving)
  std::uint32_t stripe_ = 0;
};

}  // namespace aml::ipc
