// NamedLockTable: the deployable named-lock service — LockTable on native
// hardware, plus the operational pieces a lock manager needs. Sessions, guards
// and the timed attempt are table::Frontend's (frontend.hpp); this file is the
// heap placement:
//
//   * ThreadRegistry integration: OS threads open a Session (RAII lease of a
//     dense id), so thread pools need no manual id bookkeeping and ids are
//     recycled as workers come and go;
//   * deadline-based acquisition: try_acquire_for/until run the one timed
//     attempt, aml::timed_enter, whose TimerWheel deadline raises the pid's
//     abort signal and is cancelled when the attempt returns; the lock's
//     bounded-abort guarantee turns that into a bounded-latency negative
//     answer;
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
//     the underlying LockTable drains an old generation through its per-pid
//     pin cells (retired by a scan once every cell reads zero), and a key
//     never changes stripe mid-hold.
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

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "aml/model/native.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/config.hpp"
#include "aml/table/frontend.hpp"
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
class BasicNamedLockTable
    : public Frontend<BasicNamedLockTable<Metrics>> {
  using Base = Frontend<BasicNamedLockTable<Metrics>>;

 public:
  using typename Base::Pid;
  using typename Base::Session;
  using Table = LockTable<model::NativeModel, Metrics>;
  using MetricsSink = Metrics;
  using StripeStatsView = typename Table::StripeStatsView;

  explicit BasicNamedLockTable(TableConfig config = {})
      : Base(config.max_threads), config_(config), model_(config.max_threads),
        table_(model_, {.max_threads = config.max_threads,
                        .stripes = config.stripes,
                        .tree_width = config.tree_width}),
        registry_(config.max_threads) {
    AML_ASSERT(!config.auto_grow || config.grow_check_interval >= 1,
               "auto_grow needs grow_check_interval >= 1");
    if constexpr (Metrics::kEnabled) {
      std::lock_guard<std::mutex> lk(sinks_mu_);
      for (std::uint32_t s = 0; s < table_.stripe_count(); ++s) {
        sinks_.push_back(std::make_unique<Metrics>(config.max_threads));
        table_.set_stripe_metrics(s, sinks_.back().get());
      }
    }
  }

  /// Lease a dense id for the calling thread. The Session must not outlive
  /// the table, and all guards must be released (they are, by RAII scoping)
  /// before the Session is destroyed. Aborts if more than max_threads
  /// sessions are live — size the registry to the pool.
  Session open_session() {
    const std::uint32_t id = registry_.try_lease();
    AML_ASSERT(id != ThreadRegistry::kNoId,
               "ThreadRegistry exhausted: more live threads than max_threads");
    return this->make_session(id, 0);
  }

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

 private:
  friend Base;

  // --- Frontend hooks ----------------------------------------------------

  bool enter_hash(Pid pid, std::uint64_t hash, const std::atomic<bool>* stop) {
    note_op();
    return table_.enter_hash(pid, hash, stop);
  }
  void exit_hash(Pid pid, std::uint64_t hash) { table_.exit_hash(pid, hash); }
  template <typename Key>
  std::vector<std::uint64_t> plan_hashes(const std::vector<Key>& keys) const {
    return table_.plan_hashes(keys);
  }
  /// An empty key set runs no grow check: it has nothing to wait for.
  bool enter_hashes(Pid pid, const std::vector<std::uint64_t>& hashes,
                    const std::atomic<bool>* stop) {
    if (!hashes.empty()) note_op();
    return table_.enter_hashes(pid, hashes, stop);
  }
  void exit_hashes(Pid pid, const std::vector<std::uint64_t>& hashes) {
    table_.exit_hashes(pid, hashes);
  }
  void end_session(Pid pid, std::uint64_t /*token*/) { registry_.release(pid); }

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
