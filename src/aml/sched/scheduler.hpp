// Deterministic step scheduler for simulated executions.
//
// The counting memory models gate every shared-memory operation through a
// ScheduleHook. StepScheduler implements that hook so that exactly one
// process executes one shared-memory operation at a time, with the
// interleaving chosen by a pluggable, seedable policy. This gives:
//
//   * determinism — a (seed, policy, workload) triple replays the identical
//     execution, so every test failure is reproducible;
//   * adversarial control — policies can starve processes, interleave a
//     Remove() mid-flight with a FindNext() (the paper's "crossed paths"
//     scenario), or hammer a single victim;
//   * busy-wait soundness — a process spinning on a cached word takes no
//     schedulable step until the word is mutated or its abort signal is
//     raised, so schedule exploration terminates (this mirrors the CC cost
//     model: a cached re-read is invisible to shared memory).
//
// Each simulated process runs as a ucontext fiber on the thread that calls
// run(). A gate (on_step/on_block) records the process' state and switches
// back to the scheduler, which resumes exactly one fiber per grant. Nothing
// runs concurrently, so no state here needs a lock or a cross-thread order,
// and an execution starts no OS thread however many processes it has.
//
// Liveness violations (no runnable process while some are blocked) and step
// budget exhaustion indicate algorithm bugs; the scheduler writes a
// replayable trace file (the full choice sequence — see aml/analysis/trace),
// dumps state, and aborts the process so that ctest reports a hard failure
// that can be reproduced exactly with policies::replay or tools/aml_replay.
#pragma once

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aml/analysis/trace.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/rng.hpp"
#include "aml/model/types.hpp"

namespace aml::sched {

using model::Pid;

/// Everything a scheduling policy may look at when picking the next process.
struct PickContext {
  const std::vector<Pid>& runnable;            ///< sorted ascending
  std::uint64_t step;                          ///< global step count
  pal::Xoshiro256& rng;                        ///< seeded stream
  const std::vector<std::uint64_t>& steps_of;  ///< per-process steps taken
  /// Footprint of each process' *next* step (indexed by pid), as announced
  /// through ScheduleHook::on_footprint. Entries are only meaningful for
  /// currently-runnable processes; partial-order reduction uses them to
  /// decide which runnable steps commute.
  const std::vector<model::Footprint>& pending;
};

/// A policy returns one element of ctx.runnable.
using Policy = std::function<Pid(const PickContext&)>;

namespace policies {

/// Uniformly random among runnable processes (the default).
inline Policy random() {
  return [](const PickContext& ctx) {
    return ctx.runnable[ctx.rng.below(ctx.runnable.size())];
  };
}

/// Cycle fairly through process ids.
inline Policy round_robin() {
  auto next = std::make_shared<Pid>(0);
  return [next](const PickContext& ctx) {
    for (std::size_t i = 0; i < ctx.runnable.size(); ++i) {
      for (Pid cand : ctx.runnable) {
        if (cand >= *next) {
          *next = cand + 1;
          return cand;
        }
      }
      *next = 0;  // wrap
    }
    *next = ctx.runnable.front() + 1;
    return ctx.runnable.front();
  };
}

/// Always run the highest-priority runnable process. `priority[0]` is the
/// most preferred. Processes not listed are least preferred (by id).
inline Policy prefer(std::vector<Pid> priority) {
  return [priority = std::move(priority)](const PickContext& ctx) {
    for (Pid want : priority) {
      for (Pid cand : ctx.runnable) {
        if (cand == want) return cand;
      }
    }
    return ctx.runnable.front();
  };
}

/// Scripted prefix: run `pid` for exactly `steps` grants, then the next
/// segment; when the script is exhausted, fall back to `fallback`. A segment
/// whose process is not runnable is a scripting error (hard abort), because
/// scenario tests rely on exact control.
struct Segment {
  Pid pid;
  std::uint64_t steps;
};

inline Policy script(std::vector<Segment> segments, Policy fallback) {
  struct State {
    std::vector<Segment> segs;
    std::size_t idx = 0;
    std::uint64_t used = 0;
  };
  auto st = std::make_shared<State>();
  st->segs = std::move(segments);
  return [st, fallback = std::move(fallback)](const PickContext& ctx) {
    while (st->idx < st->segs.size() &&
           st->used >= st->segs[st->idx].steps) {
      st->idx++;
      st->used = 0;
    }
    if (st->idx >= st->segs.size()) return fallback(ctx);
    const Pid want = st->segs[st->idx].pid;
    for (Pid cand : ctx.runnable) {
      if (cand == want) {
        st->used++;
        return cand;
      }
    }
    AML_ASSERT(false, "scripted process not runnable at its segment");
    return ctx.runnable.front();
  };
}

/// Replay an exact grant sequence (e.g. a Result::trace recorded with
/// record_trace from a failing run), then fall back. Each replayed pid must
/// be runnable at its turn — guaranteed when replaying a trace of the same
/// deterministic workload.
inline Policy replay(std::vector<Pid> trace, Policy fallback) {
  auto pos = std::make_shared<std::size_t>(0);
  return [trace = std::move(trace), pos,
          fallback = std::move(fallback)](const PickContext& ctx) {
    if (*pos >= trace.size()) return fallback(ctx);
    const Pid want = trace[(*pos)++];
    for (Pid cand : ctx.runnable) {
      if (cand == want) return cand;
    }
    AML_ASSERT(false, "replayed process not runnable (divergent workload?)");
    return ctx.runnable.front();
  };
}

}  // namespace policies

/// Scheduler configuration (namespace scope so it can serve as a default
/// argument — GCC rejects in-class default args that need a nested class'
/// default member initializers).
struct SchedulerConfig {
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 5'000'000;
  Policy policy{};  ///< empty => policies::random() is substituted at start
  bool record_trace = false;
  /// Label stamped into emitted trace files (workload name); "sched" if
  /// empty. Lets a fatal trace say which workload reproduces it.
  std::string trace_label{};
  /// Directory for fatal trace files; empty => $AMLOCK_TRACE_DIR, else ".".
  std::string trace_dir{};
};

class StepScheduler final : public model::ScheduleHook {
 public:
  using Config = SchedulerConfig;

  struct Result {
    std::uint64_t steps = 0;
    std::vector<Pid> trace;  ///< grant sequence if record_trace
    /// Per-grant footprints (parallel to `trace`) if record_trace.
    std::vector<model::Footprint> footprints;
    /// First invariant-probe violation ("" = none) and the step it fired at.
    /// The execution continues to completion after a violation (probes are
    /// read-only), so callers get the full choice sequence for replay.
    std::string violation;
    std::uint64_t violation_step = 0;
  };

  explicit StepScheduler(Pid nprocs, Config config = Config())
      : nprocs_(nprocs),
        config_(std::move(config)),
        rng_(config_.seed),
        procs_(nprocs) {
    if (!config_.policy) config_.policy = policies::random();
    steps_of_.assign(nprocs, 0);
    pending_.assign(nprocs, model::Footprint{});
  }

  /// Invoked before every grant with the global step number. Used by tests
  /// to raise abort signals at exact points in the execution.
  void set_step_callback(std::function<void(std::uint64_t)> cb) {
    step_callback_ = std::move(cb);
  }

  /// Invoked when no process is runnable but not all are done (e.g. everyone
  /// parked waiting). May raise abort signals to unblock; return true if it
  /// changed anything. If it returns false the scheduler declares deadlock.
  void set_idle_callback(std::function<bool()> cb) {
    idle_callback_ = std::move(cb);
  }

  /// Register an invariant probe: a read-only predicate over the workload's
  /// state (typically an aml::analysis oracle bound to the world under test)
  /// evaluated at *every* decision point and once after the last process
  /// finishes. Safe because probes run on the scheduler's context while
  /// every process' fiber is suspended. Return "" when the invariant holds, a
  /// description of the violation otherwise. The first violation is recorded
  /// in Result::violation (with the step number) and the execution continues,
  /// so the caller still gets a complete, replayable choice sequence.
  void add_invariant_probe(std::function<std::string()> probe) {
    probes_.push_back(std::move(probe));
  }

  /// Run `body(p)` for p = 0..nprocs-1 to completion under this scheduler,
  /// each on its own fiber of the calling thread. The memory model(s) used
  /// by `body` must have this scheduler installed as their hook before
  /// calling run(). A body waits for other processes only through gated
  /// model operations: an OS-level wait would stall every fiber.
  Result run(const std::function<void(Pid)>& body) {
    body_ = &body;
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t slot = kStackBytes + page;  // guard page below each
    const std::size_t bytes = slot * nprocs_;
    void* region = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    AML_ASSERT(region != MAP_FAILED, "cannot map fiber stacks");
    auto* base = static_cast<char*>(region);
    for (Pid p = 0; p < nprocs_; ++p) {
      char* guard = base + slot * p;
      const int rc = ::mprotect(guard, page, PROT_NONE);
      AML_ASSERT(rc == 0, "cannot protect a fiber stack's guard page");
      make_fiber(p, guard + page);
    }
    // Run every process up to its first gate, then grant steps one by one.
    for (Pid p = 0; p < nprocs_; ++p) resume(p);
    drive();
    ::munmap(region, bytes);
    Result result;
    result.steps = step_;
    if (config_.record_trace) {
      result.trace = std::move(choices_);
      result.footprints = std::move(footprints_);
    }
    result.violation = std::move(violation_);
    result.violation_step = violation_step_;
    return result;
  }

  // --- ScheduleHook ----------------------------------------------------

  void on_footprint(Pid p, const model::Footprint& f) override {
    // Called by process p's fiber immediately before its on_step()/on_block()
    // park; the scheduler reads it once the fiber has switched back.
    procs_[p].footprint = f;
  }

  void on_step(Pid p) override {
    procs_[p].state = State::kAtGate;
    park(p);
  }

  void on_block(Pid p, const std::atomic<std::uint64_t>* version,
                std::uint64_t seen_version, const std::atomic<bool>* stop,
                const std::atomic<std::uint64_t>* version2 = nullptr,
                std::uint64_t seen2 = 0) override {
    Proc& proc = procs_[p];
    proc.state = State::kBlocked;
    proc.version = version;
    proc.seen_version = seen_version;
    proc.version2 = version2;
    proc.seen2 = seen2;
    proc.stop = stop;
    park(p);
  }

 private:
  /// Usable stack of one fiber. Pages are committed on first touch, so a
  /// sweep over thousands of processes costs only the depth they reach.
  static constexpr std::size_t kStackBytes = 256 * 1024;

  enum class State : std::uint8_t {
    kRunning,
    kAtGate,
    kBlocked,
    kDone,
  };

  struct Proc {
    State state = State::kRunning;
    const std::atomic<std::uint64_t>* version = nullptr;
    std::uint64_t seen_version = 0;
    const std::atomic<std::uint64_t>* version2 = nullptr;
    std::uint64_t seen2 = 0;
    const std::atomic<bool>* stop = nullptr;
    model::Footprint footprint;  ///< footprint of the next gated step
    ucontext_t context{};        ///< saved while the fiber is suspended
  };

  /// Prepare p's fiber on the kStackBytes starting at `stack`. Out of line:
  /// getcontext returns twice as far as the compiler knows, which must not
  /// clobber run()'s locals.
  [[gnu::noinline]] void make_fiber(Pid p, char* stack) {
    ucontext_t& ctx = procs_[p].context;
    const int rc = ::getcontext(&ctx);
    AML_ASSERT(rc == 0, "getcontext failed");
    ctx.uc_stack.ss_sp = stack;
    ctx.uc_stack.ss_size = kStackBytes;
    ctx.uc_link = &scheduler_context_;  // a finished body returns here
    const std::uint64_t self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&ctx, reinterpret_cast<void (*)()>(&fiber_main), 3,
                  static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self), static_cast<unsigned>(p));
  }

  /// makecontext passes only int arguments, so `this` arrives in halves.
  static void fiber_main(unsigned self_hi, unsigned self_lo, unsigned p) {
    auto* self = reinterpret_cast<StepScheduler*>(
        static_cast<std::uintptr_t>((std::uint64_t{self_hi} << 32) | self_lo));
    (*self->body_)(static_cast<Pid>(p));
    self->procs_[p].state = State::kDone;
  }

  /// Switch to p's fiber; returns once it parks at a gate or finishes.
  void resume(Pid p) {
    ::swapcontext(&scheduler_context_, &procs_[p].context);
  }

  /// Switch from p's fiber back to the scheduler; returns at p's next grant.
  void park(Pid p) {
    ::swapcontext(&procs_[p].context, &scheduler_context_);
  }

  static bool blocked_runnable(const Proc& proc) {
    if (proc.version->load(std::memory_order_acquire) != proc.seen_version) {
      return true;
    }
    if (proc.version2 != nullptr &&
        proc.version2->load(std::memory_order_acquire) != proc.seen2) {
      return true;
    }
    return proc.stop != nullptr &&
           proc.stop->load(std::memory_order_acquire);
  }

  void drive() {
    for (;;) {
      // Every fiber is suspended at a gate, blocked, or done here.
      std::vector<Pid> runnable;
      bool all_done = true;
      for (Pid p = 0; p < nprocs_; ++p) {
        const Proc& proc = procs_[p];
        if (proc.state != State::kDone) all_done = false;
        if (proc.state == State::kAtGate ||
            (proc.state == State::kBlocked && blocked_runnable(proc))) {
          runnable.push_back(p);
        }
        pending_[p] = proc.footprint;
      }
      run_probes();
      if (all_done) return;

      if (runnable.empty()) {
        // Everyone is parked on unchanged words: give the harness a chance
        // to inject abort signals; otherwise this is a liveness violation.
        if (idle_callback_ && idle_callback_()) continue;
        dump_and_abort("deadlock: no runnable process");
      }

      if (step_callback_) step_callback_(step_);

      const PickContext ctx{runnable, step_, rng_, steps_of_, pending_};
      const Pid pick = config_.policy(ctx);
      AML_ASSERT(std::find(runnable.begin(), runnable.end(), pick) !=
                     runnable.end(),
                 "policy picked a non-runnable process");
      ++step_;
      ++steps_of_[pick];
      // The choice sequence is always recorded (it is what makes a fatal
      // execution replayable); per-step footprints only when requested.
      choices_.push_back(pick);
      if (config_.record_trace) footprints_.push_back(pending_[pick]);
      if (step_ > config_.max_steps) {
        dump_and_abort("step budget exhausted (livelock?)");
      }
      procs_[pick].state = State::kRunning;
      resume(pick);
    }
  }

  /// Evaluate the invariant probes at a quiescent point. Only the first
  /// violation is kept; probing stops afterwards (the state is already
  /// corrupt, follow-on reports would just be noise).
  void run_probes() {
    if (probes_.empty() || !violation_.empty()) return;
    for (const auto& probe : probes_) {
      std::string msg = probe();
      if (!msg.empty()) {
        violation_ = std::move(msg);
        violation_step_ = step_;
        return;
      }
    }
  }

  /// Persist the choice sequence executed so far as a replayable trace file
  /// (aml/analysis/trace format). Returns the path, or "" on I/O failure.
  std::string write_fatal_trace(const char* why) {
    analysis::TraceFile trace;
    trace.workload =
        config_.trace_label.empty() ? "sched" : config_.trace_label;
    trace.nprocs = nprocs_;
    trace.seed = config_.seed;
    trace.reason = why;
    trace.choices = choices_;
    trace.footprints = footprints_;  // empty unless record_trace
    std::string dir = config_.trace_dir;
    if (dir.empty()) {
      const char* env = std::getenv("AMLOCK_TRACE_DIR");
      dir = (env != nullptr && env[0] != '\0') ? env : ".";
    }
    const std::string path = dir + "/" + trace.workload + "-seed" +
                             std::to_string(config_.seed) + "-fatal.trace";
    return analysis::write_trace(path, trace) ? path : std::string{};
  }

  [[noreturn]] void dump_and_abort(const char* why) {
    std::fprintf(stderr, "StepScheduler fatal: %s at step %llu (seed %llu)\n",
                 why, static_cast<unsigned long long>(step_),
                 static_cast<unsigned long long>(config_.seed));
    for (Pid p = 0; p < nprocs_; ++p) {
      std::fprintf(stderr, "  p%u state=%d steps=%llu\n", p,
                   static_cast<int>(procs_[p].state),
                   static_cast<unsigned long long>(steps_of_[p]));
    }
    const std::string path = write_fatal_trace(why);
    if (!path.empty()) {
      std::fprintf(stderr,
                   "  replayable trace (%zu choices) written to %s\n"
                   "  reproduce with tools/aml_replay --replay %s (or feed the"
                   " choice sequence to sched::policies::replay)\n",
                   choices_.size(), path.c_str(), path.c_str());
    } else {
      // No filesystem? Still print the tail so the log alone narrows it down.
      const std::size_t n = choices_.size();
      const std::size_t from = n > 64 ? n - 64 : 0;
      std::fprintf(stderr, "  trace write failed; last %zu choices:",
                   n - from);
      for (std::size_t i = from; i < n; ++i) {
        std::fprintf(stderr, " %u", choices_[i]);
      }
      std::fprintf(stderr, "\n");
    }
    std::abort();
  }

  Pid nprocs_;
  Config config_;
  pal::Xoshiro256 rng_;
  std::vector<Proc> procs_;  ///< sized once: a saved context must not move
  ucontext_t scheduler_context_{};
  const std::function<void(Pid)>* body_ = nullptr;
  std::uint64_t step_ = 0;
  std::vector<std::uint64_t> steps_of_;
  std::vector<Pid> choices_;  ///< full grant sequence (always recorded)
  std::vector<model::Footprint> footprints_;  ///< per-grant, if record_trace
  std::vector<model::Footprint> pending_;     ///< per-pid next-step footprint
  std::string violation_;
  std::uint64_t violation_step_ = 0;
  std::vector<std::function<std::string()>> probes_;
  std::function<void(std::uint64_t)> step_callback_;
  std::function<bool()> idle_callback_;
};

}  // namespace aml::sched
