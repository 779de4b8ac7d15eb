// ProcessRegistry: leases the small dense pids the lock algorithms are
// parameterized over to operating-system processes, robustly.
//
// The in-process table's ThreadRegistry can trust its leaseholders to call
// release(); a process can be SIGKILLed holding a pid. Each slot therefore
// carries the OS pid of its holder, and survivors detect a dead holder by
// the kernel's ground truth — kill(pid, 0) == ESRCH — and drive the
// recovery protocol (see shm_lock.hpp) before reclaiming the slot. A
// holder's heartbeat lives in its pid's obs::ShmMetrics counter cell, not
// here; it is advisory, deliberately NOT a death signal: an idle-but-live
// holder stops beating, so staleness cannot distinguish idleness from death
// without a false-positive risk that would force a *live* process out of
// its critical section.
//
// Pid-reuse hardening (v3; closes v1's documented ESRCH blind spot): the
// kill(pid, 0) probe alone cannot tell a live holder from an unrelated
// process the kernel recycled its pid to. Each holder therefore publishes
// its kernel *start time* (/proc/<pid>/stat field 22 on Linux; 0 =
// "unknown" elsewhere) beside its os_pid, start time first. A holder is
// declared dead only if the kernel reports ESRCH, or the process that
// answers to the pid was started at a different time than the one that
// leased the slot — which also lets a *restarted* process recognize its own
// previous incarnation as dead and re-enter it (try_reattach below). An
// unknown start time on either side degrades conservatively to the v1
// behaviour (reuse undetected, never a false death).
//
// Lease word state machine (low 2 bits; the rest is a nonce bumped on every
// transition out of kFree or kRecovering, so neither a recovery claim nor a
// late release can ever land on a *re-leased* slot — classic ABA):
//
//     kFree --try_lease--> kLive --try_claim_recovery--> kRecovering
//       ^                    |      (or release / try_reattach:   |
//       |                    +----- the same exclusive claim) ->--+
//       |                                                         |
//       +--- finish_recovery / release / repossess ---------------+
//                       (or kZombie: the victim died in the one
//                        journal-blind doorway window and is retired;
//                        kZombie is terminal — no transition leaves it)
//
// Both exits from kLive pass through the exclusive kRecovering claim, so
// os_pid is always cleared *before* the slot becomes leasable again — a
// racing try_lease can never publish a pid that a stale store then erases.
//
// Zombies stay parked: a retired pid is never leased again. Its frozen
// journal still shows the doorway (nothing rewrites a phase once the lease
// word has left kLive), so re-leasing it would revive a ghost one-shot slot
// in an instance that may still be current. The segment loses one pid per
// zombie for the rest of its life; ShmNamedLockTable::recovery_stats()
// counts them.
//
// Zero-filled shm pages decode as "all slots kFree", so the registry needs
// no creator-side initialization at all.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <signal.h>
#include <unistd.h>

#include "aml/ipc/shm_arena.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"

namespace aml::ipc {

/// Kernel start time (clock ticks since boot) of an OS process: field 22 of
/// /proc/<pid>/stat, parsed from past the last ')' so comm names containing
/// spaces or parentheses cannot shift the fields. Returns 0 ("unknown") when
/// procfs is unavailable (the portable fallback) or the process vanished
/// mid-read; callers must treat 0 conservatively — it is evidence of
/// nothing, in particular not of pid reuse.
inline std::uint64_t process_start_ticks(std::uint64_t os_pid) {
#if defined(__linux__)
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%llu/stat",
                static_cast<unsigned long long>(os_pid));
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  ++p;  // fields resume with state (field 3); starttime is field 22,
        // i.e. the 20th whitespace-separated token from here
  for (int field = 0; field < 20; ++field) {
    while (*p == ' ') ++p;
    if (*p == '\0') return 0;
    if (field == 19) return std::strtoull(p, nullptr, 10);
    while (*p != ' ' && *p != '\0') ++p;
  }
  return 0;
#else
  (void)os_pid;
  return 0;
#endif
}

// AML_SHM_REGION_BEGIN
/// One registry slot. Padded so one slot's lease CASes never false-share
/// with another's.
struct alignas(pal::kCacheLine) ProcessSlot {
  /// (nonce << 2) | state. Zero == (nonce 0, kFree).
  std::atomic<std::uint64_t> lease;
  /// OS pid of the leaseholder; 0 while the lease CAS has succeeded but the
  /// holder has not yet published its pid (treated as alive).
  std::atomic<std::uint64_t> os_pid;
  /// Kernel start time of the leaseholder (process_start_ticks), published
  /// strictly *before* os_pid so any visible pid already has its start
  /// beside it. 0 = unknown (portable fallback; treated as "no evidence").
  std::atomic<std::uint64_t> os_start;
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(ProcessSlot);

class ProcessRegistry {
 public:
  enum State : std::uint64_t {
    kFree = 0,
    kLive = 1,
    kRecovering = 2,
    kZombie = 3,
  };

  static constexpr std::uint64_t kStateMask = 3;

  /// Both roles replay the same allocation; zero pages are the valid initial
  /// state, so neither role stores anything.
  ProcessRegistry(ShmArena& arena, model::Pid nprocs)
      : nprocs_(nprocs),
        slots_(arena.alloc_array<ProcessSlot>(nprocs)) {}

  ProcessRegistry(const ProcessRegistry&) = delete;
  ProcessRegistry& operator=(const ProcessRegistry&) = delete;

  model::Pid nprocs() const { return nprocs_; }

  /// Lease the lowest free pid; returns nprocs() when full. Publishes the
  /// caller's identity after winning the CAS — start time first, then pid
  /// (os_pid == 0 is the benign "still initializing" window — dead()
  /// treats it as alive). On success `*token` (if given) receives the
  /// lease word this holder installed; it is the capability release() —
  /// and, after a crash, try_reattach() — needs. Never returns a kZombie
  /// pid.
  model::Pid try_lease(std::uint64_t* token = nullptr) {
    for (model::Pid id = 0; id < nprocs_; ++id) {
      std::uint64_t cur = slots_[id].lease.load(std::memory_order_acquire);  // AML_X_EDGE(ipc.lease_word)
      if ((cur & kStateMask) != kFree) continue;
      const std::uint64_t next = bump_nonce(cur) | kLive;
      if (slots_[id].lease.compare_exchange_strong(
              cur, next, std::memory_order_acq_rel,  // AML_X_EDGE(ipc.lease_word) AML_V_EDGE(ipc.lease_word)
              std::memory_order_relaxed)) {
        publish_identity(id);
        if (token != nullptr) *token = next;
        return id;
      }
    }
    return nprocs_;
  }

  /// Orderly release by the leaseholder itself. `token` is the lease word
  /// try_lease installed: if a survivor has since declared this holder dead
  /// (forged test pid, OS pid reuse) and recovered — or recovered *and*
  /// re-leased — the slot, the nonce no longer matches, the claim CAS below
  /// fails, and the release is a total no-op instead of clobbering the
  /// successor's lease or erasing its published os_pid.
  ///
  /// Release reuses the recovery claim protocol: CAS the exact token to
  /// kRecovering (the same exclusive claim a survivor's recovery takes),
  /// clear os_pid while the slot is still unleasable, then free it with a
  /// bumped nonce. Clearing os_pid *before* the slot turns kFree is what
  /// keeps dead() sound: were the order reversed, a racing try_lease could
  /// win the freed slot and publish its pid between the two steps, and our
  /// trailing os_pid=0 would erase it — leaving the successor permanently
  /// undetectable (os_pid 0 reads as "alive by definition") if it later
  /// crashes. (A SIGKILL landing between the claim and the final store
  /// parks the slot in kRecovering — the same window as a recoverer dying
  /// mid-recovery, an accepted limitation; see docs/API.md.)
  void release(model::Pid id, std::uint64_t token) {
    AML_ASSERT(id < nprocs_, "ProcessRegistry::release: bad pid");
    std::uint64_t cur = token;
    if (!slots_[id].lease.compare_exchange_strong(
            cur, (token & ~kStateMask) | kRecovering,
            std::memory_order_acq_rel, std::memory_order_relaxed)) {  // AML_X_EDGE(ipc.lease_word) AML_V_EDGE(ipc.lease_word)
      return;  // stale token: the slot was recovered from under us
    }
    slots_[id].os_pid.store(0, std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
    slots_[id].os_start.store(0, std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
    // Plain store: the exclusive claim means no other transition can race.
    slots_[id].lease.store(bump_nonce(token) | kFree,
                           std::memory_order_release);  // AML_V_EDGE(ipc.lease_word)
  }

  State state(model::Pid id) const {
    return static_cast<State>(slots_[id].lease.load(
                                  std::memory_order_acquire) &  // AML_X_EDGE(ipc.lease_word)
                              kStateMask);
  }

  std::uint64_t os_pid(model::Pid id) const {
    return slots_[id].os_pid.load(std::memory_order_acquire);  // AML_X_EDGE(ipc.lease_identity)
  }

  /// Published kernel start time of the holder (0 = unknown).
  std::uint64_t os_start(model::Pid id) const {
    return slots_[id].os_start.load(std::memory_order_acquire);  // AML_X_EDGE(ipc.lease_identity)
  }

  // --- death detection and recovery claims -------------------------------

  /// True when the slot is held by a process that no longer exists: the
  /// lease is live, the holder published a pid, and either the kernel
  /// reports ESRCH for it or the process answering to the pid has a
  /// different start time than the one published (pid reuse — including our
  /// own pid having been recycled from a dead previous incarnation). A
  /// holder that has not yet published (os_pid 0) is alive by definition —
  /// it is mid-try_lease.
  ///
  /// Advisory: the answer can be stale by the time the caller acts on it
  /// (the slot may be released, recovered, or re-leased in between), so a
  /// dead() == true is only a hint to attempt try_claim_recovery(), which
  /// re-establishes death and claims under one observed lease word.
  bool dead(model::Pid id) const {
    return dead_under(id, slots_[id].lease.load(std::memory_order_acquire));  // AML_X_EDGE(ipc.lease_word)
  }

  /// Atomically (observe death ∧ claim): load the lease word once, verify
  /// the holder *under exactly that word* is dead, and CAS from that same
  /// word to kRecovering. Exactly one survivor wins.
  ///
  /// Pinning the claim to the word under which death was observed closes
  /// the TOCTOU where a separate dead() check passes, then the victim is
  /// recovered, freed, and re-leased to a live process before the claim
  /// lands — the claim would otherwise succeed against the *new* live
  /// holder and recovery would force a live process out of its critical
  /// section. The nonce is bumped on every transition out of kFree and
  /// kRecovering, so the CAS can only succeed while the slot still belongs
  /// to the holder whose death we established.
  ///
  /// The os_pid/os_start reads are covered by the pin: while the lease word
  /// equals `observed`, they are either 0 (that holder mid-publish — alive
  /// by definition) or that holder's own identity, because both release()
  /// and finish_recovery() clear them under their exclusive kRecovering
  /// claim, strictly before the slot can be freed and re-leased.
  bool try_claim_recovery(model::Pid id) {
    const std::uint64_t observed =
        slots_[id].lease.load(std::memory_order_acquire);  // AML_X_EDGE(ipc.lease_word)
    if (!dead_under(id, observed)) return false;
    std::uint64_t cur = observed;
    return slots_[id].lease.compare_exchange_strong(
        cur, (observed & ~kStateMask) | kRecovering,
        std::memory_order_acq_rel, std::memory_order_relaxed);  // AML_X_EDGE(ipc.lease_word) AML_V_EDGE(ipc.lease_word)
  }

  /// Restart re-entry, step 1: a restarted process holding its previous
  /// incarnation's lease token claims its own old slot for self-recovery.
  /// Exactly the survivor claim, but pinned to the exact token, so it can
  /// only land on *that* incarnation: if a survivor sweep won first, the
  /// slot was re-leased, or the previous incarnation is somehow still
  /// alive (a copied token), the claim refuses and the caller falls back
  /// to an ordinary fresh lease.
  bool try_reattach(model::Pid id, std::uint64_t prev_token) {
    if (id >= nprocs_) return false;
    if ((prev_token & kStateMask) != kLive) return false;
    std::uint64_t cur = slots_[id].lease.load(std::memory_order_acquire);  // AML_X_EDGE(ipc.lease_word)
    if (cur != prev_token) return false;
    if (!dead_under(id, prev_token)) return false;
    return slots_[id].lease.compare_exchange_strong(
        cur, (prev_token & ~kStateMask) | kRecovering,
        std::memory_order_acq_rel, std::memory_order_relaxed);  // AML_X_EDGE(ipc.lease_word) AML_V_EDGE(ipc.lease_word)
  }

  /// Restart re-entry, final step: convert our exclusive kRecovering claim
  /// (from try_reattach, after the passage journal has been resumed or
  /// unwound) back into a live lease held by THIS process. Returns the new
  /// lease token.
  std::uint64_t repossess(model::Pid id) {
    std::uint64_t cur = slots_[id].lease.load(std::memory_order_acquire);  // AML_X_EDGE(ipc.lease_word)
    AML_ASSERT((cur & kStateMask) == kRecovering,
               "repossess: slot not claimed");
    publish_identity(id);
    const std::uint64_t next = bump_nonce(cur) | kLive;
    // Plain store: the exclusive claim means no other transition can race.
    slots_[id].lease.store(next, std::memory_order_release);  // AML_V_EDGE(ipc.lease_word)
    return next;
  }

  /// Finish a recovery this process claimed: free the slot for re-lease,
  /// or retire it as a zombie when the victim died inside the one
  /// journal-blind doorway window (see ShmStripeLockT::recover). A retired
  /// slot is terminal: no transition leaves kZombie.
  void finish_recovery(model::Pid id, bool zombie) {
    std::uint64_t cur = slots_[id].lease.load(std::memory_order_acquire);  // AML_X_EDGE(ipc.lease_word)
    AML_ASSERT((cur & kStateMask) == kRecovering,
               "finish_recovery: slot not claimed");
    slots_[id].os_pid.store(0, std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
    slots_[id].os_start.store(0, std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
    slots_[id].lease.compare_exchange_strong(
        cur, bump_nonce(cur) | (zombie ? kZombie : kFree),
        std::memory_order_acq_rel, std::memory_order_relaxed);  // AML_X_EDGE(ipc.lease_word) AML_V_EDGE(ipc.lease_word)
  }

  /// Test hook: forge the published OS pid so owner death is simulable
  /// without fork (use a pid above the kernel's pid_max, e.g. 0x7FFFFFFF,
  /// for a guaranteed ESRCH).
  void debug_set_os_pid(model::Pid id, std::uint64_t os_pid) {
    slots_[id].os_pid.store(os_pid, std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
  }

  /// Test hook: forge the published start time so pid reuse (live process,
  /// mismatched start) is simulable without exhausting the pid space.
  void debug_set_os_start(model::Pid id, std::uint64_t start_ticks) {
    slots_[id].os_start.store(start_ticks, std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
  }

 private:
  /// Death predicate evaluated against a caller-supplied lease observation
  /// (see try_claim_recovery for why the observation must be pinned).
  bool dead_under(model::Pid id, std::uint64_t observed_lease) const {
    if ((observed_lease & kStateMask) != kLive) return false;
    const std::uint64_t pid = os_pid(id);
    if (pid == 0) return false;
    if (::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH) {
      return true;
    }
    // A process answers to the pid. Unless its start time contradicts the
    // published one, the holder is alive (this includes ourselves).
    const std::uint64_t published = os_start(id);
    if (published == 0) return false;  // unknown: no reuse evidence
    const std::uint64_t live = process_start_ticks(pid);
    if (live == 0) return false;  // vanished mid-read / no procfs
    return live != published;
  }

  /// Publish this process's identity into a slot it exclusively holds:
  /// start time strictly before pid, so a visible pid always has its start
  /// beside it (dead_under's reuse check depends on that order).
  void publish_identity(model::Pid id) {
    const std::uint64_t self = static_cast<std::uint64_t>(::getpid());
    slots_[id].os_start.store(process_start_ticks(self),
                              std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
    slots_[id].os_pid.store(self, std::memory_order_release);  // AML_V_EDGE(ipc.lease_identity)
  }

  static std::uint64_t bump_nonce(std::uint64_t lease) {
    return (lease & ~kStateMask) + (kStateMask + 1);
  }

  model::Pid nprocs_;
  ProcessSlot* slots_;
};

}  // namespace aml::ipc
