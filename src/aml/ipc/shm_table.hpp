// ShmNamedLockTable: the cross-process named-lock service — the table
// facade over shm-resident ShmStripeLockT stripes, a ProcessRegistry for
// robust pid leasing, and the owner-death recovery sweep.
//
// Deployment shape: one process calls create(name, cfg), the others call
// attach(name, cfg) with the *same* configuration (enforced by the config
// hash in the arena superblock). Every attached process replays the
// identical construction sequence against the segment, so its process-local
// replica objects resolve to the same shm words (see shm_arena.hpp).
//
// Sessions, guards and the timed attempt are table::Frontend's (frontend.hpp);
// this file is the shm placement. Sessions lease a dense pid from the shm
// ProcessRegistry (so ids are unique across all attached processes). A passage
// writes no bookkeeping that another pid also writes: its activity record
// (attempts, last event time) is the pid's own ShmMetrics counter cell, and its
// abort signal sits on the frontend's process-local per-pid line (death
// detection is ESRCH + start-time — see process_registry.hpp). When a process
// dies holding locks, a survivor's Session::recover_dead() finds the stale
// slots, claims them, and drives each victim passage through the abort/exit
// path on every stripe (see shm_lock.hpp), then frees — or, for a death inside
// the one journal-blind doorway window, retires for good — the pid. A process
// that *restarts* with its previous incarnation's identity can instead repair
// its own passage directly via reattach_session().
//
// v1 scope (documented limitations, not accidents):
//   * single-key operations only — the multi-process multi-key transaction
//     needs a cross-process acquisition journal per (stripe, pid) to make
//     partial-acquisition crashes recoverable, which is follow-up work;
//   * the stripe count is fixed at creation — the in-process table's
//     auto-grow reallocates stripe arrays, which a sealed bump arena cannot
//     express;
//   * deadlines/abort signals are process-local (the frontend's TimerWheel
//     in each process); a deadline lives only as long as its attempt, so a
//     dead pid leaves none for recovery to cancel.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "aml/ipc/process_registry.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "aml/ipc/shm_lock.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/obs/shm_metrics.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/table/frontend.hpp"
#include "aml/table/hash.hpp"

namespace aml::ipc {

struct ShmTableConfig {
  Pid nprocs = 8;             ///< dense pids shared across all processes
  std::uint32_t stripes = 8;  ///< must be a power of two; fixed for life
  std::uint32_t tree_width = 64;
  core::Find find = core::Find::kAdaptive;
  /// Segment size; 0 derives a generous bound from nprocs/stripes. Shm
  /// objects are sparse (pages commit on first touch), so over-provisioning
  /// costs address space, not memory; the arena's exhaustion assert is the
  /// backstop if a future layout outgrows the estimate.
  std::uint64_t segment_bytes = 0;
  /// Capacity of the segment-hosted event ring (obs::ShmMetrics); 0
  /// disables event recording (counters and histograms stay on).
  std::uint32_t ring_capacity = 1024;
};

/// Bump when the construction replay sequence changes shape (new objects,
/// reordered or resized allocations; layout 8: no quiescence epoch cell in
/// the registry): it is mixed into the config hash, so a binary laying out
/// the old sequence is rejected at attach instead of replaying a different
/// construction into live state.
inline constexpr std::uint64_t kShmLayoutVersion = 8;

/// Everything the layout depends on, mixed into the superblock hash so a
/// mis-configured attacher is rejected instead of replaying a different
/// construction into live state.
inline std::uint64_t shm_config_hash(const ShmTableConfig& cfg) {
  std::uint64_t h = table::fmix64(ShmArena::kAbiVersion);
  h = table::fmix64(h ^ kShmLayoutVersion);
  h = table::fmix64(h ^ cfg.nprocs);
  h = table::fmix64(h ^ cfg.stripes);
  h = table::fmix64(h ^ cfg.tree_width);
  h = table::fmix64(h ^ static_cast<std::uint64_t>(cfg.find));
  h = table::fmix64(h ^ cfg.ring_capacity);
  return h;
}

// AML_SHM_REGION_BEGIN
/// First allocation of the construction replay, at a deterministic offset
/// (the first cache line after the superblock): the service's own layout
/// parameters, stored by the creator so an *external* inspector
/// (tools/aml_stat) can discover the configuration it must replay with —
/// no out-of-band config file needed to attach to an orphaned segment.
struct ServiceHeader {
  std::atomic<std::uint64_t> layout_version;
  std::atomic<std::uint64_t> nprocs;
  std::atomic<std::uint64_t> stripes;
  std::atomic<std::uint64_t> tree_width;
  std::atomic<std::uint64_t> find;
  std::atomic<std::uint64_t> ring_capacity;
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(ServiceHeader);

/// Recovery accounting (process-local: what *this* process's sweeps did).
struct RecoveryStats {
  std::uint64_t sweeps = 0;          ///< recover_dead() calls
  std::uint64_t recovered_pids = 0;  ///< dead pids this process repaired
  std::uint64_t forced_aborts = 0;   ///< waiting victims driven to abort
  std::uint64_t forced_exits = 0;    ///< holding victims driven to exit
  std::uint64_t resignals = 0;       ///< mid-exit hand-offs re-driven
  std::uint64_t zombie_pids = 0;     ///< pids retired (doorway-blind window)
  std::uint64_t reentries = 0;       ///< own passages resumed via reattach
  /// LockDesc refcnt units on any stripe with no journaled passage behind
  /// them (a v1 zombie's legacy): value from this process's *last* sweep.
  std::uint64_t stranded_refcnts = 0;
};

class ShmNamedLockTable : public table::Frontend<ShmNamedLockTable> {
  using Base = table::Frontend<ShmNamedLockTable>;

 public:
  /// The segment-hosted ShmMetrics is the only sink: stripes carry no
  /// process-local obs::Metrics.
  using Stripe = ShmStripeLockT<obs::NullMetrics>;

  /// Create the segment and construct the service in it. Fails (nullptr +
  /// error) if the name exists — unlink() stale segments first.
  static std::unique_ptr<ShmNamedLockTable> create(const std::string& name,
                                                   const ShmTableConfig& cfg,
                                                   std::string* error) {
    if (!validate(cfg, error)) return nullptr;
    auto arena = ShmArena::create(name, segment_bytes(cfg),
                                  shm_config_hash(cfg), error);
    if (arena == nullptr) return nullptr;
    auto table = std::unique_ptr<ShmNamedLockTable>(
        new ShmNamedLockTable(std::move(arena), cfg));
    table->arena_->seal();
    return table;
  }

  /// Attach to an existing segment created with an identical configuration.
  static std::unique_ptr<ShmNamedLockTable> attach(
      const std::string& name, const ShmTableConfig& cfg, std::string* error,
      std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    if (!validate(cfg, error)) return nullptr;
    auto arena =
        ShmArena::attach(name, shm_config_hash(cfg), error, timeout);
    if (arena == nullptr) return nullptr;
    auto table = std::unique_ptr<ShmNamedLockTable>(
        new ShmNamedLockTable(std::move(arena), cfg));
    if (!table->arena_->verify_replay(error)) return nullptr;
    return table;
  }

  static void unlink(const std::string& name) { ShmArena::unlink(name); }

  /// Offset of the ServiceHeader: the first allocation after the arena
  /// constructor reserves the superblock and rounds up to a cache line.
  static constexpr std::uint64_t header_offset() {
    return (sizeof(Superblock) + pal::kCacheLine - 1) &
           ~static_cast<std::uint64_t>(pal::kCacheLine - 1);
  }

  /// Read a sealed segment's configuration from its ServiceHeader without
  /// attaching (read-only map of the first page). This is how aml_stat
  /// discovers what to replay with when inspecting a live or orphaned
  /// segment it was not told the configuration of.
  static bool peek_config(const std::string& name, ShmTableConfig* cfg,
                          std::string* error) {
    const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
    if (fd < 0) {
      if (error != nullptr) {
        *error = "shm_open(peek " + name + ") failed: " +
                 std::string(std::strerror(errno));
      }
      return false;
    }
    struct ::stat st {};
    if (::fstat(fd, &st) != 0 ||
        static_cast<std::uint64_t>(st.st_size) < header_offset() +
            sizeof(ServiceHeader)) {
      if (error != nullptr) {
        *error = "segment " + name + " too small for a service header";
      }
      ::close(fd);
      return false;
    }
    const std::size_t len = header_offset() + sizeof(ServiceHeader);
    void* base = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      if (error != nullptr) {
        *error = "mmap(peek " + name + ") failed: " +
                 std::string(std::strerror(errno));
      }
      return false;
    }
    bool ok = false;
    const Superblock* sb = reinterpret_cast<const Superblock*>(base);
    const ServiceHeader* hdr = reinterpret_cast<const ServiceHeader*>(
        static_cast<const std::byte*>(base) + header_offset());
    if (sb->ready.load(std::memory_order_acquire) == 0) {  // AML_X_EDGE(ipc.arena_seal)
      if (error != nullptr) {
        *error = "segment " + name + " not sealed (creator still "
                 "constructing, or died mid-construction)";
      }
    } else if (sb->magic.load(std::memory_order_relaxed) !=  // AML_RELAXED(read after ipc.arena_seal acquire)
                   ShmArena::kMagic ||
               sb->abi_version.load(std::memory_order_relaxed) !=  // AML_RELAXED(read after ipc.arena_seal acquire)
                   ShmArena::kAbiVersion) {
      if (error != nullptr) {
        *error = "segment " + name + ": bad magic or ABI version";
      }
    } else if (hdr->layout_version.load(std::memory_order_relaxed) !=  // AML_RELAXED(read after ipc.arena_seal acquire)
               kShmLayoutVersion) {
      if (error != nullptr) {
        *error = "segment " + name + ": layout version mismatch (have " +
                 std::to_string(hdr->layout_version.load(
                     std::memory_order_relaxed)) +  // AML_RELAXED(read after ipc.arena_seal acquire)
                 ", want " + std::to_string(kShmLayoutVersion) + ")";
      }
    } else {
      cfg->nprocs =
          static_cast<Pid>(hdr->nprocs.load(std::memory_order_relaxed));  // AML_RELAXED(read after ipc.arena_seal acquire)
      cfg->stripes = static_cast<std::uint32_t>(
          hdr->stripes.load(std::memory_order_relaxed));  // AML_RELAXED(read after ipc.arena_seal acquire)
      cfg->tree_width = static_cast<std::uint32_t>(
          hdr->tree_width.load(std::memory_order_relaxed));  // AML_RELAXED(read after ipc.arena_seal acquire)
      cfg->find = static_cast<core::Find>(
          hdr->find.load(std::memory_order_relaxed));  // AML_RELAXED(read after ipc.arena_seal acquire)
      cfg->ring_capacity = static_cast<std::uint32_t>(
          hdr->ring_capacity.load(std::memory_order_relaxed));  // AML_RELAXED(read after ipc.arena_seal acquire)
      cfg->segment_bytes = 0;
      ok = true;
    }
    ::munmap(base, len);
    return ok;
  }

  /// Lease a dense pid for this process. Empty when all nprocs pids are
  /// live or retired as zombies — recover_dead() from any live session
  /// frees slots of dead holders; a zombie's slot is never freed.
  std::optional<Session> open_session() {
    std::uint64_t token = 0;
    const Pid id = registry_.try_lease(&token);
    if (id >= config_.nprocs) return std::nullopt;
    return make_session(id, token);
  }

  // --- recovery ----------------------------------------------------------

  /// Restart re-entry: a process that re-attached to the segment and still
  /// holds its previous incarnation's identity (pid + lease token, persisted
  /// or inherited across exec) resumes or unwinds that incarnation's
  /// interrupted passages itself instead of waiting for a survivor sweep.
  /// The registry claim succeeds only if the lease word still equals
  /// `prev_token` and its published holder is provably dead — ESRCH or an
  /// OS start-time mismatch, which covers the restarted process re-drawing
  /// its own old OS pid. Every stripe's recovery arm then runs exactly as a
  /// survivor's would (the journal, not the executor, drives the repair),
  /// and the slot is repossessed under a fresh token. Empty if the claim was
  /// lost (already re-leased or swept; fall back to open_session()) or if the
  /// old incarnation died in the doorway-blind window (the pid is retired as
  /// usual).
  std::optional<Session> reattach_session(Pid id, std::uint64_t prev_token) {
    if (id >= config_.nprocs) return std::nullopt;
    if (!registry_.try_reattach(id, prev_token)) return std::nullopt;
    const std::uint64_t self_os = static_cast<std::uint64_t>(::getpid());
    // exec == victim is sound here: the old incarnation is dead and this
    // process holds its exclusive kRecovering claim, so this is the normal
    // proxy pattern with the proxy running under the owner's own pid.
    const bool zombie = recover_stripes(id, id, self_os);
    if (zombie) {
      registry_.finish_recovery(id, true);
      stats_.zombie_pids++;
      return std::nullopt;
    }
    const std::uint64_t token = registry_.repossess(id);
    stats_.reentries++;
    shm_metrics_.on_reentry(id);
    return make_session(id, token);
  }

  // --- introspection ------------------------------------------------------

  const ShmTableConfig& config() const { return config_; }
  std::uint32_t stripe_count() const {
    return static_cast<std::uint32_t>(stripes_.size());
  }
  Stripe& stripe(std::uint32_t s) {
    AML_ASSERT(s < stripes_.size(), "stripe: stripe index out of range");
    return *stripes_[s];
  }
  ProcessRegistry& registry() { return registry_; }
  ShmArena& arena() { return *arena_; }
  /// Observability: normal *and* recovered passages land here (the
  /// recoverer's forced aborts/exits flow through the same sink hooks). It
  /// is segment-hosted, so it survives every attached process: a victim's
  /// last events and the recovery dispatch counters are readable
  /// post-mortem (tools/aml_stat renders this).
  obs::ShmMetrics& shm_metrics() { return shm_metrics_; }
  const obs::ShmMetrics& shm_metrics() const { return shm_metrics_; }
  const RecoveryStats& recovery_stats() const { return stats_; }

 private:
  friend Base;
  static constexpr bool kRecoverable = true;

  // --- Frontend hooks ----------------------------------------------------

  Stripe& stripe_at(std::uint64_t hash) {
    return *stripes_[static_cast<std::uint32_t>(hash) & (config_.stripes - 1)];
  }
  bool enter_hash(Pid pid, std::uint64_t hash, const std::atomic<bool>* stop) {
    return stripe_at(hash).enter(pid, stop).acquired;
  }
  void exit_hash(Pid pid, std::uint64_t hash) { stripe_at(hash).exit(pid); }
  /// Token-checked: a no-op if a survivor recovered the lease meanwhile.
  void end_session(Pid pid, std::uint64_t token) {
    registry_.release(pid, token);
  }

  /// Sweep the registry for dead leaseholders and repair their passages,
  /// executing as `exec`. Reached only through Session::recover_dead, so
  /// `exec` is a live pid this process leased; its per-stripe session caches
  /// are reused, so it must hold no guards. Returns the number of dead pids
  /// repaired. Safe to call from multiple survivors concurrently: the
  /// registry claim elects one recoverer per victim and the per-stripe
  /// seqlock serializes the stripe repairs.
  std::uint32_t recover_dead(Pid exec) {
    stats_.sweeps++;
    const std::uint64_t sweep_begin = obs::ShmMetrics::now_ns();
    std::uint32_t recovered = 0;
    std::uint32_t repaired = 0;  // zombies included: work was still done
    const std::uint64_t self_os = static_cast<std::uint64_t>(::getpid());
    for (Pid victim = 0; victim < config_.nprocs; ++victim) {
      // dead() is an advisory prefilter (it skips the claim CAS for the
      // common all-alive sweep); try_claim_recovery() re-establishes death
      // and claims under a single observed lease word, so a victim that is
      // recovered and re-leased between the two calls is never claimed.
      if (victim == exec || !registry_.dead(victim)) continue;
      if (!registry_.try_claim_recovery(victim)) continue;
      const bool zombie = recover_stripes(exec, victim, self_os);
      registry_.finish_recovery(victim, zombie);
      repaired++;
      if (zombie) {
        stats_.zombie_pids++;
      } else {
        stats_.recovered_pids++;
        recovered++;
      }
    }
    // Stranded-refcnt audit (a v1 zombie's possible legacy): any excess of
    // a stripe's LockDesc refcnt over the journaled passages that could
    // hold a unit wedges the instance switch silently — acquires spin
    // forever with the refcnt never reaching zero — so report it as a
    // diagnosis. kPreJoin counts as a potential holder (a live joiner's
    // F&A can land before its kJoined store), so a transient race never
    // inflates the number; a truly stranded unit has no journal anywhere.
    std::uint64_t stranded = 0;
    for (auto& stripe : stripes_) {
      const std::uint64_t refcnt = stripe->peek_refcnt(exec);
      std::uint64_t holders = 0;
      for (Pid p = 0; p < config_.nprocs; ++p) {
        const Phase ph = stripe->peek_phase(p);
        if (ph >= kPreJoin && ph <= kCleanup) holders++;
      }
      if (refcnt > holders) stranded += refcnt - holders;
    }
    stats_.stranded_refcnts = stranded;
    // Sweep latency lands in the segment, so operators (and the bench's
    // recovery percentiles) can read it from any process — only sweeps that
    // actually repaired something are recorded; the all-alive prefilter
    // pass is a different (much cheaper) population.
    if (repaired != 0) {
      shm_metrics_.record_sweep_ns(obs::ShmMetrics::now_ns() - sweep_begin);
    }
    return recovered;
  }

  /// Run every stripe's recovery arm for `victim` as `exec` and tally the
  /// outcomes in stats_. True iff some stripe found the victim in its
  /// doorway-blind window (a zombie); the remaining stripes are still
  /// repaired either way.
  bool recover_stripes(Pid exec, Pid victim, std::uint64_t self_os) {
    bool zombie = false;
    for (auto& stripe : stripes_) {
      switch (stripe->recover(exec, victim, self_os)) {
        case RecoveryAction::kNone:
          break;
        case RecoveryAction::kForcedAbort:
          stats_.forced_aborts++;
          break;
        case RecoveryAction::kForcedExit:
          stats_.forced_exits++;
          break;
        case RecoveryAction::kResignalled:
          stats_.resignals++;
          break;
        case RecoveryAction::kZombie:
          zombie = true;
          break;
      }
    }
    return zombie;
  }

  /// Construction replayed identically by both roles: the service header
  /// first (deterministic offset for peek_config), then the registry, the
  /// shm metrics, and the stripes in index order.
  ShmNamedLockTable(std::unique_ptr<ShmArena> arena, ShmTableConfig cfg)
      : Base(cfg.nprocs),
        config_(cfg),
        arena_(std::move(arena)),
        header_(init_header(*arena_, cfg)),
        space_(*arena_, cfg.nprocs),
        registry_(*arena_, cfg.nprocs),
        shm_metrics_(*arena_, cfg.nprocs, cfg.stripes, cfg.ring_capacity) {
    stripes_.reserve(cfg.stripes);
    for (std::uint32_t s = 0; s < cfg.stripes; ++s) {
      stripes_.push_back(std::make_unique<Stripe>(
          space_, typename Stripe::Config{.nprocs = cfg.nprocs,
                                          .w = cfg.tree_width,
                                          .find = cfg.find}));
      stripes_.back()->set_shm_metrics(&shm_metrics_, s);
    }
  }

  static ServiceHeader* init_header(ShmArena& arena,
                                    const ShmTableConfig& cfg) {
    ServiceHeader* hdr = arena.alloc_array<ServiceHeader>(1);
    AML_ASSERT(arena.to_offset(hdr) == header_offset(),
               "ServiceHeader must be the replay's first allocation");
    if (arena.creating()) {
      hdr->layout_version.store(kShmLayoutVersion, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      hdr->nprocs.store(cfg.nprocs, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      hdr->stripes.store(cfg.stripes, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      hdr->tree_width.store(cfg.tree_width, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      hdr->find.store(static_cast<std::uint64_t>(cfg.find),
                      std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
      hdr->ring_capacity.store(cfg.ring_capacity, std::memory_order_relaxed);  // AML_RELAXED(creator init before ipc.arena_seal)
    }
    return hdr;
  }

  static bool validate(const ShmTableConfig& cfg, std::string* error) {
    if (cfg.nprocs < 1 || cfg.stripes < 1 ||
        (cfg.stripes & (cfg.stripes - 1)) != 0) {
      if (error != nullptr) {
        *error = "invalid config: nprocs >= 1 and stripes a power of two";
      }
      return false;
    }
    return true;
  }

  /// Generous closed-form segment bound; see ShmTableConfig::segment_bytes.
  static std::uint64_t segment_bytes(const ShmTableConfig& cfg) {
    if (cfg.segment_bytes != 0) return cfg.segment_bytes;
    const std::uint64_t n = cfg.nprocs;
    // Counted in cache lines (a padded word and a VersionedSpace record
    // take one each). Per instance: a VersionedSpace (one line per record,
    // ~(4N + tree) records) plus slack; per stripe: N+1 instances, the spin
    // pool (N*(N+1) go + N announce), passage slots, desc words. Doubled:
    // ShmIpcTable.SegmentBoundCoversTheConstructionReplay checks it covers.
    static_assert(sizeof(ShmSpace::Word) == sizeof(ShmSpace::Line));
    const std::uint64_t inst_lines = (8 * n + 64) + 8;
    const std::uint64_t stripe_lines =
        (n + 1) * inst_lines + n * (n + 1) + 4 * n + 16;
    const std::uint64_t lines = cfg.stripes * stripe_lines + 8 * n + 64;
    return (lines * sizeof(ShmSpace::Line)) * 2 +
           obs::ShmMetrics::footprint_bytes(cfg.nprocs, cfg.stripes,
                                            cfg.ring_capacity) +
           sizeof(ServiceHeader) + (1u << 20);
  }

  ShmTableConfig config_;
  std::unique_ptr<ShmArena> arena_;
  ServiceHeader* header_;  ///< shm: layout/config discovery for inspectors
  ShmSpace space_;
  ProcessRegistry registry_;
  obs::ShmMetrics shm_metrics_;  ///< segment-hosted, crash-surviving sink
  std::vector<std::unique_ptr<Stripe>> stripes_;
  RecoveryStats stats_;
};

}  // namespace aml::ipc
