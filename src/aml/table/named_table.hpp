// NamedLockTable: the deployable named-lock service — LockTable on native
// hardware, plus the operational pieces a lock manager needs:
//
//   * ThreadRegistry integration: OS threads open a Session (RAII lease of a
//     dense id), so thread pools need no manual id bookkeeping and ids are
//     recycled as workers come and go;
//   * deadline-based acquisition: try_acquire_for/until arm a TimerWheel
//     deadline that raises the abort signal, and the lock's bounded-abort
//     guarantee turns that into a bounded-latency negative answer;
//   * multi-key transactions: acquire_all takes the distinct stripes in
//     a global total order (deadlock-free among acquire_all users); the
//     timed variant optionally slices its budget into shorter attempts,
//     releasing everything and retrying between slices — deadline-abort as
//     the deadlock-avoidance primitive against callers that do not follow
//     the stripe order;
//   * per-stripe observability: with the obs::Metrics sink type each stripe
//     gets its own sink, so contention / abort / hand-off stats roll up per
//     shard and hot key ranges are visible;
//   * contention-adaptive striping: with `auto_grow` enabled the table
//     samples its always-on StripeStats every `grow_check_interval`
//     operations and doubles the stripe count when any stripe's concurrent
//     attempt depth reaches `grow_inflight_threshold` — the service-layer
//     mirror of the lock's adaptive RMR bound. Guards address *keys* (their
//     hashes), not stripe indices, so every guard stays valid across a grow:
//     the underlying LockTable drains old-generation holders via per-epoch
//     refcounts and a key never changes stripe mid-hold.
//
// Usage:
//
//   aml::table::NamedLockTable table({.max_threads = 64, .stripes = 32});
//   // per worker thread (or per pooled task):
//   auto session = table.open_session();
//   if (auto g = session.try_acquire_for("order:1542", 2ms)) {
//     ... critical section for that key ...
//   }                                  // guard releases on scope exit
//   auto tx = session.acquire_all({"acct:alice", "acct:bob"});
//   ... transfer ...                   // tx releases all stripes
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/adapters.hpp"
#include "aml/model/native.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/backoff.hpp"
#include "aml/pal/config.hpp"
#include "aml/table/lock_table.hpp"
#include "aml/table/thread_registry.hpp"

namespace aml::table {

struct TableConfig {
  std::uint32_t max_threads = 64;  ///< concurrent sessions (registry slots)
  std::uint32_t stripes = 32;      ///< rounded up to a power of two
  std::uint32_t tree_width = 64;
  // --- contention-adaptive striping (see header comment) -----------------
  bool auto_grow = false;           ///< sample stats and double when hot
  std::uint32_t max_stripes = 1024; ///< auto-grow ceiling
  std::uint32_t grow_inflight_threshold = 4;  ///< stripe depth = "hot"
  std::uint32_t grow_check_interval = 64;     ///< ops between policy checks
};

template <typename Metrics = obs::NullMetrics>
class BasicNamedLockTable {
 public:
  using Clock = TimerWheel::Clock;
  using Table = LockTable<model::NativeModel, Metrics>;
  using MetricsSink = Metrics;
  using StripeStatsView = typename Table::StripeStatsView;

  explicit BasicNamedLockTable(TableConfig config = {})
      : config_(config), model_(config.max_threads),
        table_(model_, {.max_threads = config.max_threads,
                        .stripes = config.stripes,
                        .tree_width = config.tree_width}),
        registry_(config.max_threads),
        signals_(config.max_threads) {
    if constexpr (Metrics::kEnabled) {
      std::lock_guard<std::mutex> lk(sinks_mu_);
      for (std::uint32_t s = 0; s < table_.stripe_count(); ++s) {
        sinks_.push_back(std::make_unique<Metrics>(config.max_threads));
        table_.set_stripe_metrics(s, sinks_.back().get());
      }
    }
  }

  BasicNamedLockTable(const BasicNamedLockTable&) = delete;
  BasicNamedLockTable& operator=(const BasicNamedLockTable&) = delete;

  class Session;
  class Guard;
  class MultiGuard;

  /// Lease a dense id for the calling thread. The Session must not outlive
  /// the table, and all guards must be released (they are, by RAII scoping)
  /// before the Session is destroyed. Aborts if more than max_threads
  /// sessions are live — size the registry to the pool.
  Session open_session() { return Session(*this, registry_.acquire()); }

  /// Sessions currently live (diagnostics).
  std::uint32_t live_sessions() const { return registry_.live(); }
  std::uint32_t stripe_count() const { return table_.stripe_count(); }
  std::uint32_t max_threads() const { return registry_.max_threads(); }

  /// Stripe-array epoch: 0 at construction, +1 per (auto-)grow.
  std::uint64_t epoch() const { return table_.epoch(); }
  /// True while the previous stripe generation still drains.
  bool draining() const { return table_.draining(); }

  /// Always-on contention counters of current-generation stripe `s`.
  StripeStatsView stripe_stats(std::uint32_t s) const {
    return table_.stripe_stats(s);
  }
  /// Largest concurrent-attempt high-water mark across current stripes.
  std::uint32_t peak_inflight() const { return table_.peak_inflight(); }

  std::uint32_t stripe_of(std::uint64_t key) const {
    return table_.stripe_of(key);
  }
  std::uint32_t stripe_of(std::string_view key) const {
    return table_.stripe_of(key);
  }

  /// Per-stripe sink (enabled flavor only; see ObservedNamedLockTable).
  /// Sinks are allocated per *stripe slot* and survive grows: after a
  /// resize, stripe s of the new generation shares sink s with the old
  /// generation's stripe s, so a shard's history stays in one sink.
  Metrics& stripe_metrics(std::uint32_t s)
    requires(Metrics::kEnabled)
  {
    std::lock_guard<std::mutex> lk(sinks_mu_);
    AML_ASSERT(s < sinks_.size(), "stripe_metrics: stripe index out of range");
    return *sinks_[s];
  }

  /// Run the grow policy now (auto_grow normally does this every
  /// grow_check_interval operations). Returns true iff the table grew.
  bool try_grow() { return grow_step(); }

  /// A session: the thread's dense id plus the signal slot timed attempts
  /// use. Move-only; releasing it returns the id to the registry.
  class Session {
   public:
    Session(Session&&) = default;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    Session& operator=(Session&&) = delete;

    std::uint32_t id() const { return lease_.id(); }

    // --- single key -------------------------------------------------------

    /// Blocking acquisition (starvation-free).
    template <typename Key>
    Guard acquire(Key key) {
      const std::uint64_t h = Table::hash_of(key);
      owner_->note_op();
      const bool ok = owner_->table_.enter_hash(id(), h, nullptr);
      AML_ASSERT(ok, "unsignalled enter cannot abort");
      return Guard(*owner_, id(), h);
    }

    /// Deadline-bounded acquisition: empty optional iff the deadline passed
    /// before the lock was granted (bounded abort bounds the overshoot).
    template <typename Key>
    std::optional<Guard> try_acquire_until(Key key, Clock::time_point when) {
      const std::uint64_t h = Table::hash_of(key);
      owner_->note_op();
      if (!owner_->timed_enter(id(), h, when)) return std::nullopt;
      return Guard(*owner_, id(), h);
    }

    template <typename Key, typename Rep, typename Period>
    std::optional<Guard> try_acquire_for(
        Key key, std::chrono::duration<Rep, Period> budget) {
      return try_acquire_until(key, Clock::now() + budget);
    }

    // --- multiple keys ----------------------------------------------------

    /// Blocking multi-key acquisition in a global total stripe order
    /// (deadlock-free among acquire_all/try_acquire_all users).
    template <typename Key>
    MultiGuard acquire_all(const std::vector<Key>& keys) {
      std::vector<std::uint64_t> hashes = owner_->table_.plan_hashes(keys);
      owner_->note_op();
      const bool ok = owner_->table_.enter_hashes(id(), hashes, nullptr);
      AML_ASSERT(ok, "unsignalled enter_hashes cannot abort");
      return MultiGuard(*owner_, id(), std::move(hashes));
    }

    /// Timed multi-key acquisition. The budget is spent in attempts of at
    /// most `slice` (0 = one attempt with the whole budget): each attempt
    /// arms the deadline, acquires in stripe order, and on abort releases
    /// everything before retrying. Slicing exists to break deadlocks with
    /// callers that hold stripes in a non-conforming order — the periodic
    /// full release lets them through.
    ///
    /// Contract:
    ///   * An empty key set succeeds vacuously and immediately, whatever the
    ///     budget (even zero or negative): a degenerate transaction has
    ///     nothing to wait for, so no deadline is armed and no grow check
    ///     runs. The returned guard holds nothing and releases nothing.
    ///   * With keys, a non-positive budget — or one that expires before
    ///     the acquisition completes — yields an empty optional; the call
    ///     never "succeeds for free" against an already-expired deadline.
    ///   * The call gives up only once Clock::now() has actually reached
    ///     the overall deadline: after a failed attempt the wall clock is
    ///     re-checked, so a final slice that lands exactly on the deadline
    ///     (or a timer that fires marginally early) cannot abandon budget
    ///     that still remains.
    template <typename Key, typename Rep, typename Period>
    std::optional<MultiGuard> try_acquire_all_for(
        const std::vector<Key>& keys,
        std::chrono::duration<Rep, Period> budget,
        std::chrono::nanoseconds slice = std::chrono::nanoseconds{0}) {
      std::vector<std::uint64_t> hashes = owner_->table_.plan_hashes(keys);
      if (hashes.empty()) {
        const bool ok = owner_->table_.enter_hashes(id(), hashes, nullptr);
        AML_ASSERT(ok, "empty acquisition cannot abort");
        return MultiGuard(*owner_, id(), std::move(hashes));
      }
      const Clock::time_point deadline = Clock::now() + budget;
      pal::Backoff backoff;
      for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= deadline) return std::nullopt;
        Clock::time_point attempt_deadline = deadline;
        if (slice.count() > 0 && now + slice < deadline) {
          attempt_deadline = now + slice;
        }
        owner_->note_op();
        if (owner_->timed_enter_all(id(), hashes, attempt_deadline)) {
          return MultiGuard(*owner_, id(), std::move(hashes));
        }
        if (Clock::now() >= deadline) return std::nullopt;
        backoff.pause();
      }
    }

    // --- escape hatches ---------------------------------------------------

    /// Abortable acquisition with a caller-managed signal (e.g. a deadlock
    /// detector or priority manager instead of a deadline).
    template <typename Key>
    std::optional<Guard> try_acquire(Key key, const AbortSignal& signal) {
      const std::uint64_t h = Table::hash_of(key);
      owner_->note_op();
      if (!owner_->table_.enter_hash(id(), h, signal.flag())) {
        return std::nullopt;
      }
      return Guard(*owner_, id(), h);
    }

   private:
    friend class BasicNamedLockTable;
    Session(BasicNamedLockTable& owner, ThreadRegistry::Lease lease)
        : owner_(&owner), lease_(std::move(lease)) {}

    BasicNamedLockTable* owner_;
    ThreadRegistry::Lease lease_;
  };

  /// RAII holder of one key's stripe. Identified by the key's hash, so the
  /// guard stays valid across auto-grow; stripe() reports the stripe index
  /// at acquisition time (diagnostics — it may be stale after a grow).
  class Guard {
   public:
    Guard(Guard&& o) noexcept
        : owner_(std::exchange(o.owner_, nullptr)), pid_(o.pid_),
          hash_(o.hash_), stripe_(o.stripe_) {}
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard() { release(); }

    std::uint32_t stripe() const { return stripe_; }
    std::uint64_t key_hash() const { return hash_; }

    void release() {
      if (owner_ != nullptr) {
        owner_->table_.exit_hash(pid_, hash_);
        owner_ = nullptr;
      }
    }

   private:
    friend class Session;
    Guard(BasicNamedLockTable& owner, std::uint32_t pid, std::uint64_t hash)
        : owner_(&owner), pid_(pid), hash_(hash),
          stripe_(static_cast<std::uint32_t>(hash) &
                  (owner.table_.stripe_count() - 1)) {}

    BasicNamedLockTable* owner_;
    std::uint32_t pid_;
    std::uint64_t hash_;
    std::uint32_t stripe_;
  };

  /// RAII holder of a key set (released in reverse stripe order).
  class MultiGuard {
   public:
    MultiGuard(MultiGuard&& o) noexcept
        : owner_(std::exchange(o.owner_, nullptr)), pid_(o.pid_),
          hashes_(std::move(o.hashes_)), stripes_(std::move(o.stripes_)) {}
    MultiGuard(const MultiGuard&) = delete;
    MultiGuard& operator=(const MultiGuard&) = delete;
    MultiGuard& operator=(MultiGuard&&) = delete;
    ~MultiGuard() { release(); }

    /// Distinct stripe indices at acquisition time (diagnostics — may be
    /// stale after a grow; the hash set is the stable identity).
    const std::vector<std::uint32_t>& stripes() const { return stripes_; }
    const std::vector<std::uint64_t>& key_hashes() const { return hashes_; }

    void release() {
      if (owner_ != nullptr) {
        owner_->table_.exit_hashes(pid_, hashes_);
        owner_ = nullptr;
      }
    }

   private:
    friend class Session;
    MultiGuard(BasicNamedLockTable& owner, std::uint32_t pid,
               std::vector<std::uint64_t> hashes)
        : owner_(&owner), pid_(pid), hashes_(std::move(hashes)) {
      const std::uint32_t mask = owner.table_.stripe_count() - 1;
      stripes_.reserve(hashes_.size());
      for (const std::uint64_t h : hashes_) {
        stripes_.push_back(static_cast<std::uint32_t>(h) & mask);
      }
      std::sort(stripes_.begin(), stripes_.end());
      stripes_.erase(std::unique(stripes_.begin(), stripes_.end()),
                     stripes_.end());
    }

    BasicNamedLockTable* owner_;
    std::uint32_t pid_;
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint32_t> stripes_;
  };

 private:
  friend class Session;

  /// One timed attempt on one key.
  bool timed_enter(std::uint32_t pid, std::uint64_t hash,
                   Clock::time_point when) {
    AbortSignal& signal = signals_[pid];
    signal.reset();
    const TimerWheel::Token token = wheel_.arm(signal, when);
    const bool ok = table_.enter_hash(pid, hash, signal.flag());
    wheel_.cancel(token);
    return ok;
  }

  /// One timed all-or-nothing attempt on a key set.
  bool timed_enter_all(std::uint32_t pid,
                       const std::vector<std::uint64_t>& hashes,
                       Clock::time_point when) {
    AbortSignal& signal = signals_[pid];
    signal.reset();
    const TimerWheel::Token token = wheel_.arm(signal, when);
    const bool ok = table_.enter_hashes(pid, hashes, signal.flag());
    wheel_.cancel(token);
    return ok;
  }

  /// Called at the top of every acquisition: with auto_grow on, every
  /// grow_check_interval-th call runs the grow policy. The counter is a
  /// relaxed fetch_add — one shared cache line, but only touched once per
  /// acquisition and never inside a critical section.
  void note_op() {
    if (!config_.auto_grow) return;
    const std::uint64_t n =
        ops_.fetch_add(1, std::memory_order_relaxed) + 1;  // AML_RELAXED(grow-check pacing counter)
    if (n % config_.grow_check_interval == 0) grow_step();
  }

  bool grow_step() {
    const typename Table::GrowPolicy policy{
        .inflight_threshold = config_.grow_inflight_threshold,
        .max_stripes = config_.max_stripes};
    if constexpr (Metrics::kEnabled) {
      // Bind sinks inside resize()'s pre-publication hook so an observed
      // stripe is never visible without its sink. Sinks live in a deque
      // (stable addresses) keyed by stripe slot: slot s's sink is shared by
      // every generation's stripe s, preserving shard history across grows.
      return table_.maybe_grow(
          policy, [this](std::uint32_t s, typename Table::StripeLock& lock) {
            std::lock_guard<std::mutex> lk(sinks_mu_);
            while (sinks_.size() <= s) {
              sinks_.push_back(
                  std::make_unique<Metrics>(config_.max_threads));
            }
            lock.set_metrics(sinks_[s].get());
          });
    } else {
      return table_.maybe_grow(policy);
    }
  }

  TableConfig config_;
  model::NativeModel model_;
  Table table_;
  ThreadRegistry registry_;
  std::deque<AbortSignal> signals_;  ///< one per dense id; timed ops only
  TimerWheel wheel_;
  std::atomic<std::uint64_t> ops_{0};        ///< auto-grow sampling counter
  std::mutex sinks_mu_;                      ///< guards sinks_ growth
  std::deque<std::unique_ptr<Metrics>> sinks_;  ///< enabled flavor only
};

/// Production default: uninstrumented.
using NamedLockTable = BasicNamedLockTable<>;

/// Instrumented flavor: every stripe carries its own obs::Metrics sink,
/// reachable via stripe_metrics(s).
using ObservedNamedLockTable = BasicNamedLockTable<obs::Metrics>;

}  // namespace aml::table
