// LockTable: a sharded named-lock service built from the paper's long-lived
// abortable lock.
//
// Keys (64-bit ids or strings) hash onto S cache-independent *stripes*; each
// stripe owns one LongLivedLock (Section 6 transformation over the Section 3
// one-shot lock) together with that lock's spin-node pool and one-shot
// instance pool. Acquiring a key acquires its stripe's lock, so two keys
// conflict iff they collide on a stripe — the classic lock-manager striping
// trade: S bounds memory (O(S * N * s(N)) words) while abortability bounds
// the damage of a collision (a deadline or deadlock-avoidance signal gets a
// waiter out in a bounded number of its own steps).
//
// The table is templated over the memory model like every algorithm here, so
// the same code runs on native hardware (aml/table/named_table.hpp wraps it
// into the deployable service) and on the counting models under the
// deterministic scheduler — which is how the table's claims are tested: the
// per-passage RMR of a key acquisition inherits the lock's adaptive bound,
// independent of how many threads are registered (bench_table_zipf), and
// mutual exclusion holds across a resize epoch transition
// (lock_table_resize_test, bench_table_resize).
//
// == Adaptive stripe resizing (epoch generations) ==
//
// The paper's headline is *adaptive* cost — RMRs that track actual
// contention — so the service layer adapts the same way: the stripe array
// can grow at runtime without stopping the world. resize(S') installs a new
// *generation* (stripe array + mask + per-stripe stats); the old generation
// drains and retires:
//
//   * every key passage pins the current generation for its whole
//     enter..exit lifetime, and acquires stripes through that generation's
//     mask — so a key never changes stripe mid-hold. A generation has one
//     cache-padded pin cell per pid, written only by its owner (a count: a
//     pid holding two keys reads 2), so pinning moves no shared line and
//     the read-mostly generation header (mask, stripes) stays clean;
//   * while the previous generation has live pins (passages that started
//     before the switch), a new-generation passage *bridges*: it acquires
//     the key's old-generation stripe first, then its new-generation stripe.
//     Old passages hold only old stripes, new passages hold both, so any two
//     overlapping passages on one key share a stripe lock — mutual exclusion
//     holds across the transition. The bridge orders old stripes strictly
//     before new stripes (each set ascending), a global total order, so
//     multi-key acquisition stays deadlock-free during a drain;
//   * when every pin cell of the old generation reads zero it is
//     *retired*: bridging stops, and passages cost exactly one stripe lock
//     again. The retirement scan runs in resize() right after publication
//     and in every unpin of a superseded generation. It uses seq_cst on the
//     cells and the current-generation pointer (a Dekker-style publication:
//     pinners store-then-recheck, the resizer publishes-then-scans, an
//     unpinner stores-then-scans) so a passage active on the old generation
//     can never be missed, and the last one out always sees all zeros.
//
// resize() is non-blocking and grow-only: it returns false when another
// resize is in flight, when the previous drain has not finished, or when the
// target is not larger than the current stripe count. Old stripe arrays are
// kept until table destruction (the counting models cannot free words
// anyway), so readers never race reclamation; memory is bounded by 2x the
// final stripe count.
//
// == Contention stats ==
//
// Every generation carries a cheap always-on StripeStats block per stripe:
// attempts in flight (queue-depth proxy), a high-water mark of that depth,
// and acquisition/abort totals. These are plain cache-padded atomics —
// no model words, so they cost no RMRs and do not perturb the deterministic
// benches. maybe_grow() turns them into an auto-grow policy: when any
// current-generation stripe has seen `inflight_threshold` concurrent
// attempts, double the stripe count (up to `max_stripes`). Full latency
// histograms stay in the optional per-stripe obs::Metrics sinks.
//
// Stats are per generation and start at zero in every new generation, so a
// high-water mark earned *before* a grow can never re-fire GrowPolicy right
// after it and double the table to max_stripes in one storm (each further
// grow must be provoked by fresh contention on the new, wider array).
//
// Multi-key acquisition (enter_hashes) sorts the distinct stripe indices and
// acquires ascending, the standard total-order discipline that makes
// deadlock impossible among multi-key callers; the abort signal still bounds
// the wait against single-key holders, and on abort every stripe taken so
// far is released in reverse order before returning, so the attempt is
// all-or-nothing.
//
// Threading contract: a thread uses a dense id from [0, max_threads)
// (ThreadRegistry leases them) and must not re-enter a stripe it already
// holds (the underlying lock is not reentrant); enter_hashes deduplicates
// colliding keys within one call, so only *nested* separate calls can
// self-collide. Every acquisition goes through a key hash (enter/exit,
// enter_hash/exit_hash, enter_hashes/exit_hashes) and is safe concurrent
// with resize().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "aml/core/longlived.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/core/versioned_space.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"
#include "aml/table/hash.hpp"

namespace aml::table {

using model::Pid;

/// Hard cap on stripe counts (construction and resize): 2^20 stripes is far
/// beyond any sane shard factor and keeps round_up_pow2 comfortably inside
/// its domain.
inline constexpr std::uint32_t kMaxStripes = std::uint32_t{1} << 20;

template <typename M, typename Metrics = obs::NullMetrics>
class LockTable {
 public:
  using StripeLock =
      core::LongLivedLock<M, core::VersionedSpace, core::OneShotLock, Metrics>;
  using MetricsSink = Metrics;

  struct Config {
    Pid max_threads = 16;     ///< N: dense thread ids the table accepts
    std::uint32_t stripes = 16;  ///< S: rounded up to a power of two
    std::uint32_t tree_width = 64;  ///< W of each stripe's tree
    core::Find find = core::Find::kAdaptive;
  };

  /// Always-on per-stripe contention snapshot (see stripe_stats()).
  struct StripeStatsView {
    std::uint64_t acquisitions = 0;  ///< granted passages through the stripe
    std::uint64_t aborts = 0;        ///< attempts abandoned via the signal
    std::uint32_t inflight = 0;      ///< attempts running right now
    std::uint32_t max_inflight = 0;  ///< high-water mark of `inflight`
  };

  /// Auto-grow policy evaluated by maybe_grow().
  struct GrowPolicy {
    std::uint32_t inflight_threshold = 4;  ///< stripe depth that flags "hot"
    std::uint32_t max_stripes = 1024;      ///< never grow beyond this
  };

  /// Invoked by resize() for each newly built stripe lock *before* the new
  /// generation becomes visible — the race-free point to bind metrics sinks.
  using StripeBuiltFn = std::function<void(std::uint32_t, StripeLock&)>;

  LockTable(M& mem, Config config) : mem_(mem), config_(config) {
    AML_ASSERT(config.max_threads >= 1, "table needs at least one thread id");
    AML_ASSERT(config.stripes >= 1 && config.stripes <= kMaxStripes,
               "Config::stripes out of [1, kMaxStripes]");
    locals_ = std::vector<pal::CachePadded<PidLocal>>(config.max_threads);
    gens_.push_back(make_generation(round_up_pow2(config.stripes), 0,
                                    /*prev=*/nullptr, nullptr));
    current_.store(gens_.back().get(),  // AML_V_EDGE(table.gen_publish)
                   std::memory_order_release);
  }

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // --- key -> stripe map ---------------------------------------------------

  static constexpr std::uint64_t hash_of(std::uint64_t key) {
    return key_hash(key);
  }
  static constexpr std::uint64_t hash_of(std::string_view key) {
    return key_hash(key);
  }

  std::uint32_t stripe_count() const { return cur().mask + 1; }
  Pid max_threads() const { return config_.max_threads; }

  /// Current-generation epoch (0 at construction, +1 per resize).
  std::uint64_t epoch() const { return cur().epoch; }

  /// True while the previous generation still has pinned passages (new
  /// acquisitions bridge both generations' stripes).
  bool draining() const {
    const Generation& g = cur();
    return g.prev != nullptr &&
           !g.prev->retired.load(std::memory_order_seq_cst);
  }

  std::uint32_t stripe_of(std::uint64_t key) const {
    return static_cast<std::uint32_t>(key_hash(key)) & cur().mask;
  }
  std::uint32_t stripe_of(std::string_view key) const {
    return static_cast<std::uint32_t>(key_hash(key)) & cur().mask;
  }

  // --- single-key operations (resize-safe) ---------------------------------

  /// Acquire the stripe guarding `key`. Returns false iff `signal` was
  /// observed while waiting (bounded abort); with a null signal it blocks
  /// until acquired (starvation-free). Safe concurrent with resize(): the
  /// passage pins its generation, and during a drain it bridges the old
  /// generation's stripe (see header comment).
  template <typename Key>
  bool enter(Pid self, Key key, const std::atomic<bool>* signal = nullptr) {
    return enter_hash(self, key_hash(key), signal);
  }

  /// Release the stripe(s) guarding `key`. Caller must hold it.
  template <typename Key>
  void exit(Pid self, Key key) {
    exit_hash(self, key_hash(key));
  }

  bool enter_hash(Pid self, std::uint64_t hash,
                  const std::atomic<bool>* signal = nullptr) {
    Generation* gen = pin(self);
    Generation* old_gen = bridge_target(*gen);
    const std::uint32_t s_new = static_cast<std::uint32_t>(hash) & gen->mask;
    std::uint32_t s_old = 0;
    if (old_gen != nullptr) {
      s_old = static_cast<std::uint32_t>(hash) & old_gen->mask;
      if (!acquire_gen_stripe(*old_gen, self, s_old, signal)) {
        unpin(self, gen);
        return false;
      }
    }
    if (!acquire_gen_stripe(*gen, self, s_new, signal)) {
      if (old_gen != nullptr) old_gen->stripes[s_old]->exit(self);
      unpin(self, gen);
      return false;
    }
    locals_[self]->singles.push_back(
        SingleHold{hash, gen, old_gen, s_new, s_old});
    return true;
  }

  void exit_hash(Pid self, std::uint64_t hash) {
    auto& singles = locals_[self]->singles;
    for (std::size_t i = singles.size(); i-- > 0;) {
      if (singles[i].hash != hash) continue;
      const SingleHold hold = singles[i];
      singles.erase(singles.begin() + static_cast<std::ptrdiff_t>(i));
      hold.gen->stripes[hold.s_new]->exit(self);
      if (hold.old_gen != nullptr) hold.old_gen->stripes[hold.s_old]->exit(self);
      unpin(self, hold.gen);
      return;
    }
    AML_ASSERT(false, "exit_hash: key is not held by this thread");
  }

  // --- multi-key ordered acquisition (resize-safe) --------------------------

  /// Sorted, deduplicated key hashes — the identity enter_hashes/exit_hashes
  /// operate on (stable across resize, unlike stripe indices).
  template <typename Key>
  std::vector<std::uint64_t> plan_hashes(const std::vector<Key>& keys) const {
    std::vector<std::uint64_t> hashes;
    hashes.reserve(keys.size());
    for (const Key& key : keys) hashes.push_back(key_hash(key));
    std::sort(hashes.begin(), hashes.end());
    hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
    return hashes;
  }

  /// All-or-nothing acquisition of every key in `hashes` (sorted, distinct —
  /// what plan_hashes() produces). Stripes are taken in a global total order
  /// (old generation ascending, then current generation ascending), so
  /// enter_hashes callers cannot deadlock each other even mid-drain. If the
  /// signal aborts any acquisition, the stripes already held are released in
  /// reverse order and the call returns false.
  bool enter_hashes(Pid self, const std::vector<std::uint64_t>& hashes,
                    const std::atomic<bool>* signal = nullptr) {
    AML_DASSERT(std::is_sorted(hashes.begin(), hashes.end()) &&
                    std::adjacent_find(hashes.begin(), hashes.end()) ==
                        hashes.end(),
                "enter_hashes input must be sorted and distinct "
                "(use plan_hashes())");
    Generation* gen = pin(self);
    Generation* old_gen = bridge_target(*gen);
    MultiHold hold;
    hold.hashes = hashes;
    hold.gen = gen;
    hold.old_gen = old_gen;
    hold.order_new = stripe_order(hashes, gen->mask);
    if (old_gen != nullptr) {
      hold.order_old = stripe_order(hashes, old_gen->mask);
    }
    for (std::size_t i = 0; i < hold.order_old.size(); ++i) {
      if (!acquire_gen_stripe(*old_gen, self, hold.order_old[i], signal)) {
        while (i-- > 0) old_gen->stripes[hold.order_old[i]]->exit(self);
        unpin(self, gen);
        return false;
      }
    }
    for (std::size_t i = 0; i < hold.order_new.size(); ++i) {
      if (!acquire_gen_stripe(*gen, self, hold.order_new[i], signal)) {
        while (i-- > 0) gen->stripes[hold.order_new[i]]->exit(self);
        for (std::size_t j = hold.order_old.size(); j-- > 0;) {
          old_gen->stripes[hold.order_old[j]]->exit(self);
        }
        unpin(self, gen);
        return false;
      }
    }
    locals_[self]->multis.push_back(std::move(hold));
    return true;
  }

  /// Release a set acquired by enter_hashes (same sorted distinct hashes).
  void exit_hashes(Pid self, const std::vector<std::uint64_t>& hashes) {
    auto& multis = locals_[self]->multis;
    for (std::size_t i = multis.size(); i-- > 0;) {
      if (multis[i].hashes != hashes) continue;
      MultiHold hold = std::move(multis[i]);
      multis.erase(multis.begin() + static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = hold.order_new.size(); j-- > 0;) {
        hold.gen->stripes[hold.order_new[j]]->exit(self);
      }
      for (std::size_t j = hold.order_old.size(); j-- > 0;) {
        hold.old_gen->stripes[hold.order_old[j]]->exit(self);
      }
      unpin(self, hold.gen);
      return;
    }
    AML_ASSERT(false, "exit_hashes: key set is not held by this thread");
  }

  // --- resizing ------------------------------------------------------------

  /// Grow the stripe array to round_up_pow2(new_stripes). Non-blocking and
  /// grow-only: returns false (and does nothing) when another resize is in
  /// flight, the previous generation is still draining, or the target is not
  /// larger than the current count. On success the new generation is visible
  /// to every subsequent acquisition; passages already running drain against
  /// the old array (see header comment). `on_stripe_built` runs for each new
  /// stripe before publication — bind per-stripe metrics sinks there.
  bool resize(std::uint32_t new_stripes,
              const StripeBuiltFn& on_stripe_built = nullptr) {
    AML_ASSERT(new_stripes >= 1 && new_stripes <= kMaxStripes,
               "resize target out of [1, kMaxStripes]");
    const std::uint32_t target = round_up_pow2(new_stripes);
    // Winning the exchange acquires the previous resizer's release below,
    // so generation bookkeeping (gens_) is owned exclusively.
    if (resizing_.exchange(true, std::memory_order_acq_rel)) {  // AML_X_EDGE(table.resize_guard)
      return false;
    }
    Generation* old_gen = current_.load(std::memory_order_seq_cst);
    if (target <= old_gen->mask + 1 ||
        (old_gen->prev != nullptr &&
         !old_gen->prev->retired.load(std::memory_order_seq_cst))) {
      resizing_.store(false, std::memory_order_release);  // AML_V_EDGE(table.resize_guard)
      return false;
    }
    gens_.push_back(make_generation(target, old_gen->epoch + 1, old_gen,
                                    on_stripe_built));
    Generation* next = gens_.back().get();
    // seq_cst required (Dekker with pin()'s increment-then-recheck), and
    // also the release side of the generation publication.
    current_.store(next, std::memory_order_seq_cst);  // AML_V_EDGE(table.gen_publish)
    // If no passage is pinned to the old generation, retire it right here —
    // no unpin will ever fire for it again. (Dekker pairing with pin(): the
    // seq_cst store above precedes this scan, so a passage that saw the old
    // pointer has its increment visible here.)
    maybe_retire(old_gen);
    resizing_.store(false, std::memory_order_release);  // AML_V_EDGE(table.resize_guard)
    return true;
  }

  /// Evaluate the auto-grow policy against the current generation's stats:
  /// when any stripe's attempt-depth high-water mark reaches
  /// `policy.inflight_threshold`, double the stripe count (capped at
  /// `policy.max_stripes`). Returns true iff a resize happened.
  bool maybe_grow(const GrowPolicy& policy,
                  const StripeBuiltFn& on_stripe_built = nullptr) {
    const Generation& g = cur();
    const std::uint32_t count = g.mask + 1;
    if (count * 2 > policy.max_stripes) return false;
    bool hot = false;
    for (std::uint32_t s = 0; s < count && !hot; ++s) {
      hot = g.stats[s]->max_inflight.load(std::memory_order_relaxed) >=  // AML_RELAXED(stats high-water probe)
            policy.inflight_threshold;
    }
    if (!hot) return false;
    return resize(count * 2, on_stripe_built);
  }

  // --- per-stripe observability --------------------------------------------

  /// Always-on contention counters of current-generation stripe `s`. The
  /// snapshot is only consistent once writers quiesce, like every relaxed
  /// counter block; `inflight` is exact at the instant of each load.
  StripeStatsView stripe_stats(std::uint32_t s) const {
    const Generation& g = cur();
    AML_ASSERT(s <= g.mask, "stripe_stats: stripe index out of range");
    const StripeStats& st = *g.stats[s];
    StripeStatsView view;
    view.acquisitions = st.acquisitions.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    view.aborts = st.aborts.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    view.inflight = st.inflight.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    view.max_inflight = st.max_inflight.load(std::memory_order_relaxed);  // AML_RELAXED(stats snapshot)
    return view;
  }

  /// Largest attempt-depth high-water mark across current-generation stripes
  /// (the scalar the auto-grow policy keys on).
  std::uint32_t peak_inflight() const {
    const Generation& g = cur();
    std::uint32_t peak = 0;
    for (std::uint32_t s = 0; s <= g.mask; ++s) {
      peak = std::max(
          peak,
          g.stats[s]->max_inflight.load(std::memory_order_relaxed));  // AML_RELAXED(stats high-water probe)
    }
    return peak;
  }

  /// Bind `sink` to current-generation stripe `s`. With per-stripe sinks,
  /// contention, abort, and hand-off statistics roll up per shard, which is
  /// how a lock service spots a hot key range. No-op for NullMetrics. NOT
  /// thread-safe: must not run concurrent with enter/exit or resize on this
  /// table (bind at construction, or through resize()'s on_stripe_built
  /// hook).
  void set_stripe_metrics(std::uint32_t s, Metrics* sink) {
    Generation& g = cur_mut();
    AML_ASSERT(s <= g.mask, "set_stripe_metrics: stripe index out of range");
    g.stripes[s]->set_metrics(sink);
  }

  // --- analysis introspection ----------------------------------------------

  /// Snapshot of one stripe-array generation for the invariant oracles in
  /// aml/analysis/oracles.hpp.
  struct GenerationView {
    std::uint64_t epoch = 0;
    std::uint32_t stripe_count = 0;
    std::uint64_t pins = 0;
    bool retired = false;
    bool is_current = false;
  };

  /// All generations ever created, oldest first. Generations are never freed
  /// before the table, and `gens_` only grows inside resize(), which on a
  /// scheduled model runs entirely within one granted step window — so the
  /// snapshot is consistent whenever every worker is parked (the only time
  /// oracle probes run). Not meaningful under free-running native threads.
  std::vector<GenerationView> debug_generations() const {
    std::vector<GenerationView> out;
    const Generation* current = current_.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_publish)
    out.reserve(gens_.size());
    for (const auto& g : gens_) {
      GenerationView v;
      v.epoch = g->epoch;
      v.stripe_count = g->mask + 1;
      for (const auto& cell : g->pins) {
        v.pins += cell->load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_quiesce)
      }
      v.retired = g->retired.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_quiesce)
      v.is_current = (g.get() == current);
      out.push_back(v);
    }
    return out;
  }

  /// Test-only: bias generation `gen_idx`'s pin count (pid 0's cell) to
  /// manufacture an illegal state (e.g. a retired generation with pinned
  /// passages) so oracle fire-tests can observe a violation. Never call
  /// outside tests.
  void debug_corrupt_pins(std::size_t gen_idx, std::uint64_t delta) {
    gens_[gen_idx]->pins[0]->fetch_add(delta, std::memory_order_seq_cst);
  }

  /// Test-only: force generation `gen_idx`'s retired flag. See
  /// debug_corrupt_pins.
  void debug_force_retired(std::size_t gen_idx, bool retired) {
    gens_[gen_idx]->retired.store(retired, std::memory_order_seq_cst);
  }

 private:
  /// Always-on per-stripe counters (plain atomics: no model words, no RMRs).
  struct StripeStats {
    std::atomic<std::uint64_t> acquisitions{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint32_t> inflight{0};
    std::atomic<std::uint32_t> max_inflight{0};
  };

  /// One stripe-array epoch. Old generations are kept (never freed before
  /// the table) so passages draining against them never race reclamation.
  struct Generation {
    std::uint32_t mask = 0;
    std::uint64_t epoch = 0;
    Generation* prev = nullptr;  ///< the generation this one superseded
    std::vector<std::unique_ptr<StripeLock>> stripes;
    std::vector<pal::CachePadded<StripeStats>> stats;
    /// Per pid: that pid's passages in flight on this generation. Written
    /// only by its owner, so a passage's pin never moves a shared line.
    std::vector<pal::CachePadded<std::atomic<std::uint64_t>>> pins;
    std::atomic<bool> retired{false};  ///< fully drained; bridging over
  };

  struct SingleHold {
    std::uint64_t hash;
    Generation* gen;
    Generation* old_gen;  ///< non-null when the passage bridged the drain
    std::uint32_t s_new;
    std::uint32_t s_old;
  };

  struct MultiHold {
    std::vector<std::uint64_t> hashes;  ///< sorted distinct; exit identity
    Generation* gen = nullptr;
    Generation* old_gen = nullptr;
    std::vector<std::uint32_t> order_new;  ///< acquired stripes, ascending
    std::vector<std::uint32_t> order_old;  ///< empty when not bridged
  };

  /// Per-thread hold records (touched only by the owning dense id).
  struct PidLocal {
    std::vector<SingleHold> singles;
    std::vector<MultiHold> multis;
  };

  const Generation& cur() const {
    return *current_.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_publish)
  }
  Generation& cur_mut() {
    return *current_.load(std::memory_order_acquire);  // AML_X_EDGE(table.gen_publish)
  }

  std::unique_ptr<Generation> make_generation(
      std::uint32_t nstripes, std::uint64_t epoch, Generation* prev,
      const StripeBuiltFn& on_stripe_built) {
    auto gen = std::make_unique<Generation>();
    gen->mask = nstripes - 1;
    gen->epoch = epoch;
    gen->prev = prev;
    gen->stripes.reserve(nstripes);
    gen->stats = std::vector<pal::CachePadded<StripeStats>>(nstripes);
    gen->pins = std::vector<pal::CachePadded<std::atomic<std::uint64_t>>>(
        config_.max_threads);
    for (std::uint32_t s = 0; s < nstripes; ++s) {
      gen->stripes.push_back(std::make_unique<StripeLock>(
          mem_, typename StripeLock::Config{.nprocs = config_.max_threads,
                                            .w = config_.tree_width,
                                            .find = config_.find}));
      if (on_stripe_built) on_stripe_built(s, *gen->stripes.back());
    }
    return gen;
  }

  /// Pin the current generation for one passage. The increment-then-recheck
  /// (all seq_cst) pairs with resize()'s publish-then-scan: either the
  /// pinner lands on the generation that is still current, or it retries on
  /// the new one — a stale pin is withdrawn before any stripe is touched,
  /// through unpin(), so a stale pinner that leaves last still retires it.
  Generation* pin(Pid self) {
    for (;;) {
      Generation* g = current_.load(std::memory_order_seq_cst);
      std::atomic<std::uint64_t>& cell = *g->pins[self];
      const std::uint64_t held =
          cell.load(std::memory_order_relaxed);  // AML_RELAXED(own cell; only this pid writes it)
      cell.store(held + 1, std::memory_order_seq_cst);
      if (current_.load(std::memory_order_seq_cst) == g) return g;
      unpin(self, g);
    }
  }

  void unpin(Pid self, Generation* g) {
    std::atomic<std::uint64_t>& cell = *g->pins[self];
    const std::uint64_t held =
        cell.load(std::memory_order_relaxed);  // AML_RELAXED(own cell; only this pid writes it)
    // seq_cst for the Dekker with resize(); also the release side the
    // quiescence probes acquire.
    cell.store(held - 1, std::memory_order_seq_cst);  // AML_V_EDGE(table.gen_quiesce)
    maybe_retire(g);
  }

  /// Retire `g` if it is superseded and every pid's cell reads zero.
  /// Idempotent; racing callers can both store true. Each unpinner of a
  /// superseded generation scans after its own store, so whichever store
  /// is last in the seq_cst order is followed by a scan that sees all zero.
  void maybe_retire(Generation* g) {
    if (current_.load(std::memory_order_seq_cst) == g) return;
    for (const auto& cell : g->pins) {
      if (cell->load(std::memory_order_seq_cst) != 0) return;
    }
    g->retired.store(true, std::memory_order_seq_cst);  // AML_V_EDGE(table.gen_quiesce)
  }

  /// The generation a new passage on `gen` must bridge, or null when the
  /// predecessor has fully drained. A false-positive (prev retires just
  /// after the load) only costs one uncontended extra acquisition; a
  /// false-negative is impossible while any old passage is live (see
  /// maybe_retire's seq_cst pairing).
  Generation* bridge_target(Generation& gen) {
    Generation* prev = gen.prev;
    if (prev == nullptr || prev->retired.load(std::memory_order_seq_cst)) {
      return nullptr;
    }
    return prev;
  }

  /// One stripe acquisition with always-on stats: depth in/out, grant/abort
  /// totals, high-water mark.
  bool acquire_gen_stripe(Generation& gen, Pid self, std::uint32_t s,
                          const std::atomic<bool>* signal) {
    StripeStats& st = *gen.stats[s];
    const std::uint32_t depth =
        st.inflight.fetch_add(1, std::memory_order_relaxed) + 1;  // AML_RELAXED(stats counter)
    std::uint32_t seen =
        st.max_inflight.load(std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    while (seen < depth &&
           !st.max_inflight.compare_exchange_weak(  // AML_RELAXED(stats high-water CAS)
               seen, depth, std::memory_order_relaxed)) {
    }
    const bool ok = gen.stripes[s]->enter(self, signal).acquired;
    st.inflight.fetch_sub(1, std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    if (ok) {
      st.acquisitions.fetch_add(1, std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    } else {
      st.aborts.fetch_add(1, std::memory_order_relaxed);  // AML_RELAXED(stats counter)
    }
    return ok;
  }

  static std::vector<std::uint32_t> stripe_order(
      const std::vector<std::uint64_t>& hashes, std::uint32_t mask) {
    std::vector<std::uint32_t> order;
    order.reserve(hashes.size());
    for (const std::uint64_t h : hashes) {
      order.push_back(static_cast<std::uint32_t>(h) & mask);
    }
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    return order;
  }

  M& mem_;
  Config config_;
  std::vector<std::unique_ptr<Generation>> gens_;  ///< resize-serialized
  std::atomic<Generation*> current_{nullptr};
  std::atomic<bool> resizing_{false};
  std::vector<pal::CachePadded<PidLocal>> locals_;
};

}  // namespace aml::table
