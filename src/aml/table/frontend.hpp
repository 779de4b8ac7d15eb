// Frontend: the session layer of both deployable named-lock tables, the
// in-process BasicNamedLockTable (heap placement) and the cross-process
// ShmNamedLockTable (shm placement). It holds the only copy of Session,
// Guard, MultiGuard, stripe_of(key), the timed attempt, the per-pid PidLocal
// lines and the TimerWheel. Frontend<Placement> is a CRTP base: the derived
// table passes itself as `Placement` and supplies, as private hooks behind
// `friend Base`, only what differs between the placements:
//
//   enter_hash(pid, hash, stop) -> bool  enter the key's stripe (a null
//   exit_hash(pid, hash)                 stop cannot abort)
//   end_session(pid, token)              return the pid's lease
//   kRecoverable                         optional: enables Session::token()
//                                        and Session::recover_dead()
//   plan_hashes, enter_hashes,           optional: the multi-key calls
//   exit_hashes                          compile only where these exist
//
// plus a public stripe_count(). A capability a placement lacks is gated by
// `requires`, not emulated.
//
// The timed attempt is aml::timed_enter (core/adapters.hpp): the deadline's
// token lives on the attempt's stack and is cancelled when `enter` returns,
// so no deadline outlives its attempt and nothing else can reach it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/adapters.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/table/hash.hpp"

namespace aml::table {

template <class Placement>
class Frontend {
 public:
  using Clock = TimerWheel::Clock;
  using Pid = model::Pid;

  class Guard;
  class MultiGuard;

  Frontend(const Frontend&) = delete;  // the wheel thread holds local_
  Frontend& operator=(const Frontend&) = delete;

  /// Current stripe of `key` (a std::uint64_t or a std::string_view).
  template <typename Key>
  std::uint32_t stripe_of(Key key) const {
    return stripe_of_hash(key_hash(key));
  }

  /// Armed, unfired deadlines on this process's wheel (0 when idle).
  std::size_t pending_deadlines() const { return wheel_.pending(); }

  /// A session: a leased dense pid. Move-only. A Session and its guards are
  /// used by one thread at a time (the lock runs one passage per pid at a
  /// time, and only that thread arms the pid's signal); hand one over only
  /// via a join or a mutex. All guards must be released before the Session
  /// closes, and it must not outlive its table.
  class Session {
   public:
    Session(Session&& o) noexcept
        : owner_(std::exchange(o.owner_, nullptr)), id_(o.id_),
          token_(o.token_) {}
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    Session& operator=(Session&&) = delete;
    ~Session() { close(); }

    Pid id() const { return id_; }

    /// The lease word securing this session. A process that persists
    /// (id, token) across a restart — or inherits them across exec — can
    /// hand them to reattach_session() to resume its own passages.
    std::uint64_t token() const
      requires(Placement::kRecoverable)
    {
      return token_;
    }

    /// Return the lease (the destructor does this too).
    void close() {
      if (owner_ != nullptr) {
        owner_->self().end_session(id_, token_);
        owner_ = nullptr;
      }
    }

    // --- single key -------------------------------------------------------

    /// Blocking acquisition (starvation-free).
    template <typename Key>
    Guard acquire(Key key) {
      const std::uint64_t h = key_hash(key);
      const bool ok = owner_->self().enter_hash(id_, h, nullptr);
      AML_ASSERT(ok, "unsignalled enter cannot abort");
      return Guard(*owner_, id_, h);
    }

    /// Deadline-bounded acquisition: empty optional iff the deadline passed
    /// before the lock was granted (bounded abort bounds the overshoot).
    template <typename Key>
    std::optional<Guard> try_acquire_until(Key key, Clock::time_point when) {
      const std::uint64_t h = key_hash(key);
      const auto enter = [&](const AbortSignal& signal) {
        return owner_->self().enter_hash(id_, h, signal.flag());
      };
      return guard_if(owner_->timed_enter(id_, when, enter), h);
    }

    template <typename Key, typename Rep, typename Period>
    std::optional<Guard> try_acquire_for(
        Key key, std::chrono::duration<Rep, Period> budget) {
      return try_acquire_until(key, Clock::now() + budget);
    }

    /// Abortable acquisition with a caller-managed signal (e.g. a deadlock
    /// detector or priority manager instead of a deadline).
    template <typename Key>
    std::optional<Guard> try_acquire(Key key, const AbortSignal& signal) {
      const std::uint64_t h = key_hash(key);
      return guard_if(owner_->self().enter_hash(id_, h, signal.flag()), h);
    }

    // --- multiple keys (placements with enter_hashes) ---------------------

    /// Blocking multi-key acquisition in a global total stripe order
    /// (deadlock-free among acquire_all/try_acquire_all users).
    template <typename Key>
    MultiGuard acquire_all(const std::vector<Key>& keys)
      requires requires(Placement& p) { p.enter_hashes(Pid{}, {}, nullptr); }
    {
      return enter_all(owner_->self().plan_hashes(keys));
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
        std::chrono::nanoseconds slice = std::chrono::nanoseconds{0})
      requires requires(Placement& p) { p.enter_hashes(Pid{}, {}, nullptr); }
    {
      std::vector<std::uint64_t> hashes = owner_->self().plan_hashes(keys);
      if (hashes.empty()) return enter_all(std::move(hashes));
      const Clock::time_point deadline = Clock::now() + budget;
      pal::Backoff backoff;
      for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= deadline) break;
        Clock::time_point attempt_deadline = deadline;
        if (slice.count() > 0 && now + slice < deadline) {
          attempt_deadline = now + slice;
        }
        const bool ok = owner_->timed_enter(
            id_, attempt_deadline, [&](const AbortSignal& signal) {
              return owner_->self().enter_hashes(id_, hashes, signal.flag());
            });
        if (ok) return MultiGuard(*owner_, id_, std::move(hashes));
        if (Clock::now() >= deadline) break;
        backoff.pause();
      }
      return std::nullopt;
    }

    // --- recovery (recoverable placements) ---------------------------------

    /// Sweep for dead processes (see ShmNamedLockTable). Must not be called
    /// while this session holds a guard.
    std::uint32_t recover_dead()
      requires(Placement::kRecoverable)
    {
      return owner_->self().recover_dead(id_);
    }

   private:
    friend class Frontend;
    Session(Frontend& owner, Pid id, std::uint64_t token)
        : owner_(&owner), id_(id), token_(token) {}

    /// The guard of a granted attempt; empty if it was refused.
    std::optional<Guard> guard_if(bool granted, std::uint64_t hash) {
      if (granted) return Guard(*owner_, id_, hash);
      return std::nullopt;
    }
    MultiGuard enter_all(std::vector<std::uint64_t> hashes) {
      const bool ok = owner_->self().enter_hashes(id_, hashes, nullptr);
      AML_ASSERT(ok, "unsignalled enter_hashes cannot abort");
      return MultiGuard(*owner_, id_, std::move(hashes));
    }

    Frontend* owner_;
    Pid id_;
    std::uint64_t token_;  ///< lease word for token-checked release
  };

  /// RAII holder of one key's stripe. Identified by the key's hash, so the
  /// guard stays valid across a grow; stripe() reports the stripe index at
  /// acquisition time (diagnostics — it may be stale after a grow).
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
        owner_->self().exit_hash(pid_, hash_);
        owner_ = nullptr;
      }
    }

   private:
    friend class Session;
    Guard(Frontend& owner, Pid pid, std::uint64_t hash)
        : owner_(&owner), pid_(pid), hash_(hash),
          stripe_(owner.stripe_of_hash(hash)) {}

    Frontend* owner_;
    Pid pid_;
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
        owner_->self().exit_hashes(pid_, hashes_);
        owner_ = nullptr;
      }
    }

   private:
    friend class Session;
    MultiGuard(Frontend& owner, Pid pid, std::vector<std::uint64_t> hashes)
        : owner_(&owner), pid_(pid), hashes_(std::move(hashes)) {
      stripes_.reserve(hashes_.size());
      for (auto h : hashes_) stripes_.push_back(owner.stripe_of_hash(h));
      std::sort(stripes_.begin(), stripes_.end());
      stripes_.erase(std::unique(stripes_.begin(), stripes_.end()),
                     stripes_.end());
    }

    Frontend* owner_;
    Pid pid_;
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint32_t> stripes_;
  };

 protected:
  explicit Frontend(Pid nprocs) : local_(new PidLocal[nprocs]) {}

  /// A session on a freshly leased pid, starting from a lowered signal: a
  /// raise left by the pid's previous leaseholder (a deadline that fired as
  /// its attempt ended, or a holder that died) cannot leak into it.
  Session make_session(Pid id, std::uint64_t token) {
    local_[id].signal.reset();
    return Session(*this, id, token);
  }

 private:
  Placement& self() { return static_cast<Placement&>(*this); }
  const Placement& self() const {
    return static_cast<const Placement&>(*this);
  }

  std::uint32_t stripe_of_hash(std::uint64_t hash) const {
    return static_cast<std::uint32_t>(hash) & (self().stripe_count() - 1);
  }

  /// A timed attempt of `pid`: `enter(signal)` runs against the pid's
  /// signal, which the wheel raises at `when`.
  template <typename Enter>
  bool timed_enter(Pid pid, Clock::time_point when, Enter&& enter) {
    return aml::timed_enter(wheel_, local_[pid].signal, when,
                            std::forward<Enter>(enter));
  }

  /// Process-local state of one pid, one cache line so a waiter polling its
  /// signal never shares it with another session. The pid's session lowers
  /// the signal; the wheel raises it.
  struct alignas(pal::kCacheLine) PidLocal {
    AbortSignal signal;  ///< timed attempts only
  };

  /// One per dense pid. Declared before wheel_ so it outlives the wheel
  /// thread, which raises the signals in it.
  std::unique_ptr<PidLocal[]> local_;
  TimerWheel wheel_;
};

}  // namespace aml::table
