// The ledger's closed-loop load generator: seeded key streams generated
// before timing, the per-layer workers that feed one stream into one entry
// point, and the runner every phase and rung goes through.
//
// A run interleaves its phases in rounds, one slice of each phase per
// round. A slice starts the phase's threads pinned to CPUs, lets them meet
// at a pal::SpinBarrier, runs a warm-up window, then one batched window and,
// for end-to-end phases, one sampled window. A batched window reads no
// clock per passage (deadline attempts excepted: they need `now` to set the
// deadline) and yields throughput and per-passage time; a sampled window
// times every passage and yields latency percentiles.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/adapters.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/rng.hpp"
#include "aml/pal/threading.hpp"
#include "aml/table/hash.hpp"
#include "ledger.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;
using std::chrono::nanoseconds;

inline std::uint64_t to_ns(Clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<nanoseconds>(d).count());
}

// The table shape every workload shares.
inline constexpr std::uint32_t kSlots = 4;      ///< session slots / N
inline constexpr std::uint32_t kStripes = 16;
inline constexpr std::uint32_t kTreeWidth = 64;  ///< W
inline constexpr std::uint32_t kKeySpace = 4096;

// The deadline discipline.
inline constexpr auto kDeadlineBudget = std::chrono::microseconds(10);
inline constexpr auto kHold = std::chrono::microseconds(40);
inline constexpr std::uint32_t kHoldOneIn = 8;

/// Entries per thread stream; the stream repeats when a window outlasts it.
inline constexpr std::uint32_t kStreamLen = 1u << 15;
/// Latency samples one thread keeps per sampled window.
inline constexpr std::size_t kLatencyCap = std::size_t{1} << 18;
inline constexpr std::size_t kOvershootCap = std::size_t{1} << 16;

enum class Discipline : std::uint8_t {
  kBlock,     ///< blocking acquire, empty critical section
  kDeadline,  ///< try_acquire_until(now + 10us); hold 40us w.p. 1/8
};

struct KeyDist {
  std::uint32_t keys = kKeySpace;
  double theta = 0.0;  ///< Zipf skew; 0 is uniform
};

struct StreamSpec {
  Discipline discipline = Discipline::kBlock;
  std::uint32_t threads = 1;
  KeyDist dist;
};

/// The stripe a key lands on in every striped rung and in both frontends.
inline std::uint32_t stripe_of(std::uint64_t key) {
  return static_cast<std::uint32_t>(aml::table::key_hash(key)) &
         (kStripes - 1);
}

/// One thread's inputs, all drawn from the seed before timing.
struct Stream {
  std::vector<std::uint32_t> key;
  std::vector<std::uint8_t> stripe;
  std::vector<std::uint8_t> hold;
};

inline std::vector<Stream> make_streams(const StreamSpec& spec,
                                        std::uint64_t seed) {
  const aml::pal::ZipfDistribution zipf(spec.dist.keys, spec.dist.theta);
  std::vector<Stream> out(spec.threads);
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    aml::pal::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + t + 1);
    Stream& s = out[t];
    s.key.resize(kStreamLen);
    s.stripe.resize(kStreamLen);
    s.hold.resize(kStreamLen);
    for (std::uint32_t i = 0; i < kStreamLen; ++i) {
      const auto k = static_cast<std::uint32_t>(
          spec.dist.theta == 0.0 ? rng.below(spec.dist.keys) : zipf(rng));
      s.key[i] = k;
      s.stripe[i] = static_cast<std::uint8_t>(stripe_of(k));
      s.hold[i] = spec.discipline == Discipline::kDeadline &&
                  rng.below(kHoldOneIn) == 0;
    }
  }
  return out;
}

/// One passage's inputs as a worker sees them.
struct Op {
  std::uint32_t key;
  std::uint32_t stripe;
};

// --- placement ---------------------------------------------------------------

/// The CPUs this process may run on, in order, as of the first call (which
/// main makes before it pins anything: a pinned thread sees only its CPU).
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

/// Pin the calling thread to the `slot`-th allowed CPU (wrapping). Returns
/// false where the placement cannot be set.
inline bool pin_to(std::size_t slot) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) == 0;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Where worker `tid` of a `threads`-thread phase runs in round `round`.
/// Left to itself the scheduler here keeps a slice's fresh threads on their
/// parent's CPU, so contended phases would not overlap; and the host slows
/// one virtual CPU at a time, so each round moves the workers one CPU on.
/// A phase with fewer threads than CPUs leaves the last CPU to the
/// coordinating thread and the TimerWheel threads it started.
inline std::size_t worker_slot(std::uint32_t tid, std::uint32_t threads,
                               std::uint32_t round) {
  const std::size_t n = std::max<std::size_t>(allowed_cpus().size(), 1);
  const std::size_t pool = threads < n && n > 1 ? n - 1 : n;
  return (static_cast<std::size_t>(round) + tid) % pool;
}

// --- spans -------------------------------------------------------------------

/// A closed interval on the steady clock, recorded around a public call.
struct Span {
  const char* name;
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint32_t tid;
};

inline std::uint64_t now_ns() { return to_ns(Clock::now().time_since_epoch()); }

/// Per-thread span buffer, filled only while `recording`: the first `cap`
/// spans are kept for the span file, and every acquire-call duration (up to
/// kLatencyCap) for the percentiles.
struct SpanBuffer {
  std::vector<Span> spans;
  std::size_t cap = 0;
  std::vector<std::uint64_t> samples;
  bool recording = false;
  void push(const char* name, std::uint64_t t0, std::uint64_t t1,
            std::uint32_t tid) {
    if (recording && spans.size() < cap) spans.push_back({name, t0, t1, tid});
  }
  void acquired(const char* name, std::uint64_t t0, std::uint64_t t1,
                std::uint32_t tid) {
    push(name, t0, t1, tid);
    if (recording && samples.size() < kLatencyCap) samples.push_back(t1 - t0);
  }
};

// --- workers: one stream into one entry point --------------------------------

/// Shared deadline machinery for the lock-level rungs: the same arm / abortable
/// enter / cancel the frontends do, on a rung-local TimerWheel.
struct Deadline {
  Deadline(aml::TimerWheel* w) : wheel(w) {}  // NOLINT: implicit by design
  aml::TimerWheel* wheel;
  aml::AbortSignal signal;
  aml::TimerWheel::Token arm(Clock::time_point when) {
    signal.reset();
    return wheel->arm(signal, when);
  }
};

/// A lock per stripe, entered with AbortableLock's API (enter(tid) /
/// enter(tid, signal) / exit(tid)).
template <typename Lock>
struct AbortableWorker {
  std::vector<std::unique_ptr<Lock>>* locks;
  std::uint32_t tid;
  Deadline dl;

  template <typename Body>
  void block(const Op& op, Body&& body) {
    Lock& l = *(*locks)[op.stripe];
    l.enter(tid);
    body();
    l.exit(tid);
  }
  template <typename Body>
  bool timed(const Op& op, Clock::time_point when, Body&& body) {
    Lock& l = *(*locks)[op.stripe];
    const auto token = dl.arm(when);
    const bool ok = l.enter(tid, dl.signal);
    dl.wheel->cancel(token);
    if (!ok) return false;
    body();
    l.exit(tid);
    return true;
  }
};

/// A lock per stripe with the raw model-level API (enter(tid, flag) returning
/// an EnterResult): ShmStripeLockT.
template <typename Lock>
struct RawStripeWorker {
  std::vector<std::unique_ptr<Lock>>* locks;
  std::uint32_t tid;
  Deadline dl;

  template <typename Body>
  void block(const Op& op, Body&& body) {
    Lock& l = *(*locks)[op.stripe];
    l.enter(tid, nullptr);
    body();
    l.exit(tid);
  }
  template <typename Body>
  bool timed(const Op& op, Clock::time_point when, Body&& body) {
    Lock& l = *(*locks)[op.stripe];
    const auto token = dl.arm(when);
    const bool ok = l.enter(tid, dl.signal.flag()).acquired;
    dl.wheel->cancel(token);
    if (!ok) return false;
    body();
    l.exit(tid);
    return true;
  }
};

/// A keyed lock table entered by key (LockTable::enter / exit).
template <typename Table>
struct KeyedWorker {
  Table* table;
  std::uint32_t tid;
  Deadline dl;

  template <typename Body>
  void block(const Op& op, Body&& body) {
    const std::uint64_t key = op.key;
    table->enter(tid, key);
    body();
    table->exit(tid, key);
  }
  template <typename Body>
  bool timed(const Op& op, Clock::time_point when, Body&& body) {
    const std::uint64_t key = op.key;
    const auto token = dl.arm(when);
    const bool ok = table->enter(tid, key, dl.signal.flag());
    dl.wheel->cancel(token);
    if (!ok) return false;
    body();
    table->exit(tid, key);
    return true;
  }
};

/// A frontend session (NamedLockTable's or ShmNamedLockTable's): acquire /
/// try_acquire_until returning a guard that releases on scope exit. With a
/// span buffer it records the acquire and release calls separately.
template <typename Session>
struct SessionWorker {
  Session session;
  SpanBuffer* spans = nullptr;
  std::uint32_t tid = 0;

  template <typename Body>
  void block(const Op& op, Body&& body) {
    const std::uint64_t key = op.key;
    if (spans == nullptr) {
      auto guard = session.acquire(key);
      body();
      return;
    }
    const std::uint64_t t0 = now_ns();
    auto guard = session.acquire(key);
    const std::uint64_t t1 = now_ns();
    body();
    const std::uint64_t t2 = now_ns();
    guard.release();
    const std::uint64_t t3 = now_ns();
    spans->acquired("acquire", t0, t1, tid);
    spans->push("release", t2, t3, tid);
  }
  template <typename Body>
  bool timed(const Op& op, Clock::time_point when, Body&& body) {
    const std::uint64_t key = op.key;
    if (spans == nullptr) {
      auto guard = session.try_acquire_until(key, when);
      if (!guard) return false;
      body();
      return true;
    }
    const std::uint64_t t0 = now_ns();
    auto guard = session.try_acquire_until(key, when);
    const std::uint64_t t1 = now_ns();
    spans->acquired("try_acquire_until", t0, t1, tid);
    if (!guard) return false;
    body();
    const std::uint64_t t2 = now_ns();
    guard->release();
    spans->push("release", t2, now_ns(), tid);
    return true;
  }
};

// --- the trial runner --------------------------------------------------------

/// One slice of a phase: a warm-up window, one batched window and, when
/// `sampled`, one sampled window.
struct TrialPlan {
  double warmup_s = 0.05;
  double window_s = 0.1;
  bool sampled = false;
  std::uint32_t round = 0;  ///< which round of the run this slice is in
};

/// One slice's figures: throughput and per-passage time from its batched
/// window, latency percentiles from its sampled window, deadline outcomes
/// (and each timed-out attempt's overshoot, deadline to return) from both.
/// Percentiles are left empty when their tail is too thin.
struct Round {
  double ops_s = 0.0;
  double passage_ns = 0.0;
  std::optional<double> p50, p99;
  std::uint64_t samples = 0;  ///< latency samples behind p50 / p99
  std::uint64_t attempts = 0, timeouts = 0;
  std::vector<std::uint64_t> overshoot_ns;
};

/// What one phase (one stream through one entry point) measured: a Round
/// per slice. `all_attempts` includes warm-up passages.
struct PhaseResult {
  std::vector<Round> rounds;
  std::uint64_t all_attempts = 0;
  std::vector<std::uint64_t> cursor;  ///< next stream entry per thread
};

/// One slice of a phase: its extent, what it attempted (warm-up included)
/// and how many keys failed the exclusion check.
struct SliceInfo {
  std::uint64_t t0 = 0, t1 = 0;
  std::uint64_t attempts = 0, timeouts = 0;
  std::uint64_t exclusion_errors = 0;
};

/// Run one slice of `streams` through the workers `make_worker(tid)` builds
/// (each in its own thread), adding its windows to `acc`. The critical
/// section increments a plain per-key counter and counts the grant per
/// thread; at the end of the slice the two must agree for every key, which
/// fails when two holders of one stripe overlapped.
template <typename MakeWorker>
SliceInfo run_phase(PhaseResult& acc, Discipline discipline,
                    nanoseconds budget, const std::vector<Stream>& streams,
                    const TrialPlan& plan, MakeWorker&& make_worker,
                    std::vector<SpanBuffer>* spans = nullptr) {
  const auto threads = static_cast<std::uint32_t>(streams.size());
  acc.cursor.resize(threads, 0);
  SliceInfo info;

  struct alignas(aml::pal::kCacheLine) Tally {
    std::uint64_t attempts = 0, grants = 0, timeouts = 0;
    std::vector<std::uint64_t> lat;
    std::size_t nlat = 0;
    std::vector<std::uint64_t> overshoot;
    std::vector<std::uint32_t> key_grants;
    std::uint64_t cursor = 0;
  };
  enum Mode : int { kBatched, kSampled, kExit };

  std::vector<std::uint64_t> counter(kKeySpace, 0);
  std::vector<Tally> tally(threads);
  std::atomic<bool> stop{false};
  std::atomic<int> mode{kBatched};
  std::atomic<bool> recording{false};
  aml::pal::SpinBarrier barrier(threads + 1);
  const bool deadline = discipline == Discipline::kDeadline;
  // When the workers leave the last CPU free, the coordinator spins there
  // through each window instead of sleeping. The TimerWheel threads live on
  // that CPU, and on a virtual host a timer that fires on an idle vCPU waits
  // for the host to schedule the vCPU: abort overshoot then moved by
  // milliseconds from run to run.
  const bool keep_awake = threads < allowed_cpus().size();

  auto thread_main = [&](std::uint32_t tid) {
    pin_to(worker_slot(tid, threads, plan.round));
    auto worker = make_worker(tid);
    Tally& me = tally[tid];
    me.cursor = acc.cursor[tid];
    me.lat.assign(kLatencyCap, 0);
    me.overshoot.reserve(kOvershootCap);
    me.key_grants.assign(kKeySpace, 0);
    const Stream& s = streams[tid];
    SpanBuffer* buf = spans != nullptr ? &(*spans)[tid] : nullptr;
    std::uint64_t* const ctr = counter.data();
    std::uint32_t* const mine = me.key_grants.data();
    for (;;) {
      barrier.arrive_and_wait();
      const int m = mode.load(std::memory_order_relaxed);
      if (m == kExit) break;
      const bool sampled = m == kSampled;
      if (buf != nullptr) buf->recording = recording.load();
      me.nlat = 0;
      std::uint64_t i = me.cursor;
      std::uint64_t attempts = 0, grants = 0, timeouts = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t idx = static_cast<std::uint32_t>(i++) &
                                  (kStreamLen - 1);
        const Op op{s.key[idx], s.stripe[idx]};
        const bool hold = s.hold[idx] != 0;
        std::uint64_t held_ns = 0;
        auto body = [&] {
          ctr[op.key]++;
          mine[op.key]++;
          if (hold) {
            const auto h0 = Clock::now();
            auto h1 = h0;
            do {
              h1 = Clock::now();
            } while (h1 - h0 < kHold);
            held_ns = to_ns(h1 - h0);
          }
        };
        attempts++;
        const Clock::time_point t0 =
            (sampled || deadline) ? Clock::now() : Clock::time_point{};
        bool granted = true;
        if (deadline) {
          const Clock::time_point when = t0 + budget;
          granted = worker.timed(op, when, body);
          if (!granted) {
            timeouts++;
            const Clock::time_point back = Clock::now();
            if (me.overshoot.size() < kOvershootCap) {
              me.overshoot.push_back(back > when ? to_ns(back - when) : 0);
            }
          }
        } else {
          worker.block(op, body);
        }
        grants += granted ? 1 : 0;
        if (sampled && me.nlat < kLatencyCap) {
          me.lat[me.nlat++] = to_ns(Clock::now() - t0) - held_ns;
        }
      }
      me.cursor = i;
      me.attempts = attempts;
      me.grants = grants;
      me.timeouts = timeouts;
      barrier.arrive_and_wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) pool.emplace_back(thread_main, t);

  info.t0 = now_ns();
  Round round;
  auto window = [&](int m, double seconds, bool measured) {
    mode.store(m, std::memory_order_relaxed);
    stop.store(false, std::memory_order_relaxed);
    recording.store(measured);
    for (Tally& t : tally) t.overshoot.clear();
    barrier.arrive_and_wait();
    const auto t0 = Clock::now();
    if (keep_awake) {
      const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
      while (Clock::now() < end) cpu_relax();
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
    stop.store(true, std::memory_order_relaxed);
    barrier.arrive_and_wait();
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::uint64_t attempts = 0, grants = 0, timeouts = 0;
    for (Tally& t : tally) {
      attempts += t.attempts;
      grants += t.grants;
      timeouts += t.timeouts;
    }
    info.attempts += attempts;
    info.timeouts += timeouts;
    acc.all_attempts += attempts;
    if (!measured) return;
    round.attempts += attempts;
    round.timeouts += timeouts;
    for (Tally& t : tally) {
      round.overshoot_ns.insert(round.overshoot_ns.end(), t.overshoot.begin(),
                                t.overshoot.end());
    }
    if (m == kSampled) {
      std::vector<std::uint64_t> lat;
      for (Tally& t : tally) {
        lat.insert(lat.end(), t.lat.begin(),
                   t.lat.begin() + static_cast<std::ptrdiff_t>(t.nlat));
      }
      round.samples = lat.size();
      round.p50 = percentile(lat, 0.50);
      round.p99 = percentile(std::move(lat), 0.99);
    } else if (grants != 0) {
      round.ops_s = static_cast<double>(grants) / wall;
      round.passage_ns = wall * 1e9 * threads / static_cast<double>(grants);
    }
  };

  window(plan.sampled ? kSampled : kBatched, plan.warmup_s, false);
  window(kBatched, plan.window_s, true);
  if (plan.sampled) window(kSampled, plan.window_s, true);
  acc.rounds.push_back(std::move(round));
  mode.store(kExit, std::memory_order_relaxed);
  barrier.arrive_and_wait();
  for (std::thread& t : pool) t.join();
  info.t1 = now_ns();

  for (std::uint32_t t = 0; t < threads; ++t) acc.cursor[t] = tally[t].cursor;
  for (std::uint32_t k = 0; k < kKeySpace; ++k) {
    std::uint64_t sum = 0;
    for (const Tally& t : tally) sum += t.key_grants[k];
    if (sum != counter[k]) info.exclusion_errors++;
  }
  return info;
}

/// One phase's part of a run: its share of the measuring time, whether it
/// takes sampled windows, and the call that runs one slice of it.
struct Slice {
  double share = 0.0;
  bool sampled = false;
  std::function<void(const TrialPlan&)> run;
};

/// Run every phase in `rounds` rounds, one slice of each per round, each
/// round starting one phase later. A slow spell of the host then lands on a
/// minority of every phase's windows, which the reported better-side value
/// leaves out, instead of on all of one phase's.
inline void interleave(std::vector<Slice>& slices, double seconds,
                       std::uint32_t rounds) {
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < slices.size(); ++i) {
      Slice& s = slices[(i + r) % slices.size()];
      const double t = seconds * s.share / rounds;
      TrialPlan p;
      p.sampled = s.sampled;
      p.round = r;
      p.warmup_s = std::min(0.05, 0.2 * t);
      p.window_s = (t - p.warmup_s) / (s.sampled ? 2.0 : 1.0);
      s.run(p);
    }
  }
}

}  // namespace ledger
