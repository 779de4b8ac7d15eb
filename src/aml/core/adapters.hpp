// Ergonomic adapters around aml::AbortableLock:
//
//   * LockGuard / TryGuard     — RAII critical sections;
//   * TimerWheel               — one background thread that raises
//                                AbortSignals at deadlines (the watchdog
//                                pattern every timed-try-lock needs);
//   * timed_enter              — the one timed attempt (reset, arm, enter,
//                                cancel), shared by TimedAbortableLock and
//                                both named-lock tables;
//   * TimedAbortableLock       — try_enter_for / try_enter_until built from
//                                the lock's bounded-abort guarantee;
//   * StdAbortableMutex        — satisfies the standard Lockable concept
//                                (lock / try_lock / unlock), so it drops
//                                into std::lock_guard, std::unique_lock,
//                                std::scoped_lock; each acquisition leases
//                                a dense process id from a
//                                table::ThreadRegistry.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "aml/core/abortable_lock.hpp"
#include "aml/table/thread_registry.hpp"

namespace aml {

/// RAII guard: enters in the constructor, exits in the destructor.
class LockGuard {
 public:
  LockGuard(AbortableLock& lock, std::uint32_t tid) : lock_(lock), tid_(tid) {
    lock_.enter(tid_);
  }
  ~LockGuard() { lock_.exit(tid_); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  AbortableLock& lock_;
  std::uint32_t tid_;
};

/// RAII guard for abortable acquisition: check owns() after construction.
class TryGuard {
 public:
  TryGuard(AbortableLock& lock, std::uint32_t tid, const AbortSignal& signal)
      : lock_(lock), tid_(tid), owns_(lock.enter(tid, signal)) {}
  ~TryGuard() {
    if (owns_) lock_.exit(tid_);
  }
  TryGuard(const TryGuard&) = delete;
  TryGuard& operator=(const TryGuard&) = delete;

  bool owns() const { return owns_; }
  explicit operator bool() const { return owns_; }

 private:
  AbortableLock& lock_;
  std::uint32_t tid_;
  bool owns_;
};

/// A single background thread that raises abort signals when their deadline
/// passes. Pending entries are indexed *by deadline* (a multimap ordered on
/// `when`) with a token -> entry side index for cancel, so arm(), cancel()
/// and each wheel wakeup are O(log #pending) — a previous revision scanned
/// the whole token map on every wakeup, turning a deadline storm into
/// O(#pending) work per fire. arm() wakes the wheel thread only when the new
/// deadline becomes the earliest; armings behind the current front leave the
/// wheel asleep until its already-correct wakeup time. Deadlines already due
/// are raised immediately by the wheel thread.
class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;
  using Token = std::uint64_t;

  TimerWheel() : thread_([this] { run(); }) {}

  ~TimerWheel() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Raise `signal` at (or as soon as possible after) `when`.
  Token arm(AbortSignal& signal, Clock::time_point when) {
    bool new_earliest;
    Token token;
    {
      std::lock_guard<std::mutex> lk(mu_);
      token = next_token_++;
      const auto it = by_deadline_.emplace(when, Entry{&signal, token});
      by_token_.emplace(token, it);
      new_earliest = (it == by_deadline_.begin());
    }
    // Only a new front deadline changes the wheel's wakeup time; notifying
    // unconditionally woke (and re-sorted) the wheel on every arm.
    if (new_earliest) cv_.notify_one();
    return token;
  }

  /// Best-effort cancel: if the deadline already fired, the signal stays
  /// raised (callers reset() their signals between uses anyway).
  void cancel(Token token) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = by_token_.find(token);
    if (it == by_token_.end()) return;  // fired or cancelled already
    by_deadline_.erase(it->second);
    by_token_.erase(it);
    // No notify: removing the front at worst gives the wheel one spurious
    // wakeup at the stale time, after which it re-arms on the new front.
  }

  std::size_t pending() const {
    std::lock_guard<std::mutex> lk(mu_);
    return by_token_.size();
  }

 private:
  struct Entry {
    AbortSignal* signal;
    Token token;
  };
  using DeadlineMap = std::multimap<Clock::time_point, Entry>;

  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      if (by_deadline_.empty()) {
        cv_.wait(lk, [&] { return stop_ || !by_deadline_.empty(); });
        continue;
      }
      const auto front = by_deadline_.begin();
      const auto when = front->first;
      if (Clock::now() >= when) {
        front->second.signal->raise();
        by_token_.erase(front->second.token);
        by_deadline_.erase(front);
        continue;
      }
      cv_.wait_until(lk, when);
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  DeadlineMap by_deadline_;                      ///< fire order
  std::map<Token, DeadlineMap::iterator> by_token_;  ///< cancel index
  Token next_token_ = 1;
  bool stop_ = false;
  // Declared LAST: members initialize in declaration order, and the wheel
  // thread must only start once every field above is constructed.
  std::thread thread_;
};

/// The one timed attempt: lower `signal`, arm it on `wheel` for `when`, run
/// `enter(signal)`, then cancel the deadline. The token lives only in this
/// frame, so no deadline outlives its attempt. If the deadline fired first,
/// the cancel is a no-op and the signal stays raised until the next reset.
template <typename Enter>
bool timed_enter(TimerWheel& wheel, AbortSignal& signal,
                 TimerWheel::Clock::time_point when, Enter&& enter) {
  signal.reset();
  const TimerWheel::Token token = wheel.arm(signal, when);
  const bool ok = enter(signal);
  wheel.cancel(token);
  return ok;
}

/// AbortableLock plus deadline-based acquisition. Each thread id owns a
/// dedicated signal slot, so concurrent timed attempts do not interfere.
class TimedAbortableLock {
 public:
  explicit TimedAbortableLock(LockConfig config = {})
      : lock_(config), signals_(config.max_threads) {}

  bool try_enter_for(std::uint32_t tid, std::chrono::nanoseconds budget) {
    return try_enter_until(tid, TimerWheel::Clock::now() + budget);
  }

  bool try_enter_until(std::uint32_t tid, TimerWheel::Clock::time_point when) {
    return timed_enter(wheel_, signals_[tid], when,
                       [&](const AbortSignal& signal) {
                         return lock_.enter(tid, signal);
                       });
  }

  void enter(std::uint32_t tid) { lock_.enter(tid); }
  void exit(std::uint32_t tid) { lock_.exit(tid); }

 private:
  AbortableLock lock_;
  std::deque<AbortSignal> signals_;
  TimerWheel wheel_;
};

/// Standard-Lockable facade: usable with std::lock_guard / std::unique_lock
/// / std::scoped_lock. try_lock() runs an acquisition attempt with a
/// pre-raised signal: by bounded abort it returns in a bounded number of
/// steps, acquiring only if the lock is handed over essentially immediately.
///
/// Each acquisition leases a process id for its own duration: at most
/// `max_threads` threads may be inside lock()/try_lock() or holding the
/// mutex at once, and any number may use it over its lifetime.
class StdAbortableMutex {
 public:
  explicit StdAbortableMutex(std::uint32_t max_threads = 64)
      : registry_(max_threads),
        lock_(LockConfig{.max_threads = max_threads}) {}

  void lock() {
    table::ThreadRegistry::Lease lease = registry_.acquire();
    lock_.enter(lease.id());
    holder_ = std::move(lease);
  }

  /// The id goes back to the registry only after the exit completes.
  void unlock() {
    const table::ThreadRegistry::Lease lease = std::move(holder_);
    lock_.exit(lease.id());
  }

  bool try_lock() {
    AbortSignal signal;
    signal.raise();
    table::ThreadRegistry::Lease lease = registry_.acquire();
    if (!lock_.enter(lease.id(), signal)) return false;  // releases the id
    holder_ = std::move(lease);
    return true;
  }

 private:
  table::ThreadRegistry registry_;
  AbortableLock lock_;
  /// The holder's lease; written and read only inside the critical section.
  table::ThreadRegistry::Lease holder_;
};

}  // namespace aml
