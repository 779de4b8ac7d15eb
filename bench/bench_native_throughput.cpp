// Native-hardware lock/unlock throughput: the production AbortableLock
// against std::mutex and the ticket-lock baseline, uncontended and under
// thread contention, with per-acquisition latency percentiles. Single-thread
// rows then time the abort paths: an aborted attempt while the lock is held,
// enter/exit carrying a signal, a mixed abort-marking rate, and the tree
// width ablation.
//
// Unlike the counting-model benches this measures wall-clock time, so the
// numbers vary run to run: the committed BENCH_native_throughput.json is a
// *schema-stable* record (CI diffs it with numeric values normalized, so
// structural drift fails the gate while honest jitter does not). Each run
// also self-checks mutual exclusion — every lock protects a plain counter
// whose final value must equal the op count — so the bench doubles as a
// native stress test.
//
// Note: on a single-core host the contended numbers measure hand-off through
// the OS scheduler rather than cache-line transfer; the RMR benches (the
// bench_table1_* binaries) are the paper-faithful comparison. These numbers
// establish that the lock is a practical, deployable artifact.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "aml/baselines/ticket.hpp"
#include "aml/core/abortable_lock.hpp"
#include "aml/harness/report.hpp"
#include "aml/harness/stats.hpp"
#include "aml/harness/table.hpp"
#include "aml/model/native.hpp"
#include "aml/pal/rng.hpp"
#include "aml/pal/threading.hpp"

namespace {

using aml::harness::Summary;
using aml::harness::summarize;
using aml::harness::Table;
using aml::model::NativeModel;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kMaxThreads = 4;
constexpr std::uint32_t kOpsPerThread = 10'000;

struct RunResult {
  double ops_per_sec = 0;
  Summary latency_ns;  ///< per-acquisition enter..exit wall time
  bool exclusion_held = false;
};

/// Run `threads` workers, each doing kOpsPerThread enter/protected-increment/
/// exit rounds through the callables, timing every acquisition.
template <typename Enter, typename Exit>
RunResult run_one(std::uint32_t threads, Enter enter, Exit exit_fn) {
  std::vector<std::vector<std::uint64_t>> lat(threads);
  for (auto& v : lat) v.reserve(kOpsPerThread);
  std::uint64_t protected_counter = 0;  // plain: torn unless exclusion holds

  const auto wall0 = Clock::now();
  aml::pal::run_threads(threads, [&](std::uint32_t tid) {
    for (std::uint32_t op = 0; op < kOpsPerThread; ++op) {
      const auto t0 = Clock::now();
      enter(tid);
      protected_counter++;
      exit_fn(tid);
      const auto t1 = Clock::now();
      lat[tid].push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
  });
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  RunResult r;
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(threads) * kOpsPerThread;
  r.ops_per_sec = wall_s > 0 ? static_cast<double>(total_ops) / wall_s : 0;
  std::vector<std::uint64_t> all;
  all.reserve(total_ops);
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  r.latency_ns = summarize(all);
  r.exclusion_held = protected_counter == total_ops;
  return r;
}

RunResult run_lock(const std::string& lock, std::uint32_t threads) {
  if (lock == "amlock") {
    aml::AbortableLock l(aml::LockConfig{.max_threads = kMaxThreads});
    return run_one(
        threads, [&](std::uint32_t tid) { l.enter(tid); },
        [&](std::uint32_t tid) { l.exit(tid); });
  }
  if (lock == "amlock_seqcst") {
    // The A/B twin for the justified-relaxation gate: the identical lock
    // over the all-seq_cst native model (every edge in tools/edges.toml
    // forced back to a fence-pair). Relaxed must never lose to this.
    aml::BasicAbortableLock<aml::obs::NullMetrics,
                            aml::model::NativeModelSeqCst>
        l(aml::LockConfig{.max_threads = kMaxThreads});
    return run_one(
        threads, [&](std::uint32_t tid) { l.enter(tid); },
        [&](std::uint32_t tid) { l.exit(tid); });
  }
  if (lock == "std_mutex") {
    std::mutex m;
    return run_one(
        threads, [&](std::uint32_t) { m.lock(); },
        [&](std::uint32_t) { m.unlock(); });
  }
  // ticket
  NativeModel model(kMaxThreads);
  aml::baselines::TicketLock<NativeModel> l(model, kMaxThreads);
  return run_one(
      threads, [&](std::uint32_t tid) { l.enter(tid, nullptr); },
      [&](std::uint32_t tid) { l.exit(tid); });
}

/// Time kOpsPerThread calls of `op` on one thread, one latency per call.
template <typename Op>
RunResult run_solo(Op op) {
  std::vector<std::uint64_t> lat;
  lat.reserve(kOpsPerThread);
  const auto wall0 = Clock::now();
  for (std::uint32_t i = 0; i < kOpsPerThread; ++i) {
    const auto t0 = Clock::now();
    op();
    const auto t1 = Clock::now();
    lat.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  RunResult r;
  r.ops_per_sec = wall_s > 0 ? kOpsPerThread / wall_s : 0;
  r.latency_ns = summarize(lat);
  r.exclusion_held = true;
  return r;
}

/// Latency of an aborted attempt while thread 0 holds the lock throughout:
/// how fast enter() returns once its signal is up. Counts the attempts that
/// (wrongly) acquired.
RunResult run_abort_while_held(std::uint64_t* acquired) {
  aml::AbortableLock lock(aml::LockConfig{.max_threads = 2});
  lock.enter(0);
  aml::AbortSignal sig;
  sig.raise();
  const RunResult r = run_solo([&] {
    if (lock.enter(1, sig)) {
      ++*acquired;
      lock.exit(1);
    }
  });
  lock.exit(0);
  return r;
}

/// Uncontended enter/exit carrying a never-raised signal: the cost of
/// abortability on the fast path.
RunResult run_enter_exit_signal() {
  aml::AbortableLock lock(aml::LockConfig{.max_threads = 1});
  aml::AbortSignal sig;
  return run_solo([&] {
    if (lock.enter(0, sig)) lock.exit(0);
  });
}

/// Uncontended enter/exit where each attempt first raises its signal with
/// probability `ppm` / 1e6. A solo attempt wins the race with its own
/// signal (the hand-off beats the abort check, footnote 2 of the paper), so
/// `aborts` stays 0: this isolates the cost of carrying the signal.
RunResult run_mixed_abort(std::uint64_t ppm, std::uint64_t* aborts) {
  aml::AbortableLock lock(aml::LockConfig{.max_threads = 1});
  aml::AbortSignal sig;
  aml::pal::Xoshiro256 rng(42);
  return run_solo([&] {
    sig.reset();
    if (rng.chance_ppm(ppm)) sig.raise();
    if (lock.enter(0, sig)) {
      lock.exit(0);
    } else {
      ++*aborts;
    }
  });
}

/// Tree-width ablation on the abort-free uncontended fast path.
RunResult run_tree_width(std::uint32_t width) {
  aml::AbortableLock lock(
      aml::LockConfig{.max_threads = 1, .tree_width = width});
  return run_solo([&] {
    lock.enter(0);
    lock.exit(0);
  });
}

}  // namespace

int main() {
  aml::harness::BenchReport br("native_throughput");
  br.config("max_threads", std::uint64_t{kMaxThreads})
      .config("ops_per_thread", std::uint64_t{kOpsPerThread})
      .config("locks", "amlock,amlock_seqcst,std_mutex,ticket")
      .config("abort_rows",
              "abort_while_held,enter_exit_signal,mixed_abort_{0,10,50},"
              "tree_width_{2,8,64}")
      .config("values", "wall-clock (nondeterministic); CI diffs structure");

  Table table("Native enter/exit throughput and per-acquisition latency");
  table.headers({"lock", "threads", "ops/sec", "p50 ns", "p90 ns", "p99 ns",
                 "max ns"});

  bool ok = true;
  double relaxed_total = 0;  // amlock ops/sec summed over thread counts
  double seqcst_total = 0;   // amlock_seqcst likewise — the paired gate
  for (const std::string lock :
       {"amlock", "amlock_seqcst", "std_mutex", "ticket"}) {
    for (std::uint32_t threads : {1u, 2u, 4u}) {
      const RunResult r = run_lock(lock, threads);
      ok = ok && r.exclusion_held;
      if (lock == "amlock") relaxed_total += r.ops_per_sec;
      if (lock == "amlock_seqcst") seqcst_total += r.ops_per_sec;
      table.row({lock, Table::num(std::uint64_t{threads}),
                 Table::num(r.ops_per_sec),
                 Table::num(r.latency_ns.p50), Table::num(r.latency_ns.p90),
                 Table::num(r.latency_ns.p99), Table::num(r.latency_ns.max)});
      const std::string prefix = lock + "_t" + std::to_string(threads);
      br.summary(prefix + "_ops_per_sec", r.ops_per_sec)
          .summary(prefix + "_latency_ns", r.latency_ns);
    }
  }

  // Single-thread abort-path rows.
  const auto add_row = [&](const std::string& name, const RunResult& r) {
    table.row({name, Table::num(std::uint64_t{1}), Table::num(r.ops_per_sec),
               Table::num(r.latency_ns.p50), Table::num(r.latency_ns.p90),
               Table::num(r.latency_ns.p99), Table::num(r.latency_ns.max)});
    br.summary(name + "_t1_ops_per_sec", r.ops_per_sec)
        .summary(name + "_t1_latency_ns", r.latency_ns);
  };
  std::uint64_t held_acquired = 0;
  add_row("abort_while_held", run_abort_while_held(&held_acquired));
  br.summary("abort_while_held_acquired", held_acquired);
  ok = ok && held_acquired == 0;
  add_row("enter_exit_signal", run_enter_exit_signal());
  for (const std::uint64_t ppm : {0u, 100'000u, 500'000u}) {
    const std::string name = "mixed_abort_" + std::to_string(ppm / 10'000);
    std::uint64_t aborts = 0;
    add_row(name, run_mixed_abort(ppm, &aborts));
    br.summary(name + "_aborts", aborts);
  }
  for (const std::uint32_t width : {2u, 8u, 64u}) {
    add_row("tree_width_" + std::to_string(width), run_tree_width(width));
  }

  // The relaxation gate: the justified-relaxation build must at least match
  // the all-seq_cst twin. Wall-clock benches jitter (CI runners, single-core
  // hosts), so the gate takes the aggregate over thread counts and grants a
  // 25% noise band — a genuinely backwards relaxation (an edge that forces
  // extra fences or a bounce) loses by integer factors, not percent.
  const double ratio =
      seqcst_total > 0 ? relaxed_total / seqcst_total : 0.0;
  const bool relaxation_pays = ratio >= 0.75;
  std::printf("relaxation gate: relaxed/seq_cst aggregate ratio %.3f "
              "(floor 0.75): %s\n",
              ratio, relaxation_pays ? "ok" : "FAIL");

  table.print();
  br.summary("mutual_exclusion_held", std::uint64_t{ok ? 1u : 0u});
  br.summary("relaxed_vs_seqcst_ratio", ratio);
  br.summary("relaxation_gate_held",
             std::uint64_t{relaxation_pays ? 1u : 0u});
  br.table(table);
  br.write();
  if (!ok) {
    std::printf("FAIL: protected counter torn or an aborted attempt "
                "acquired — mutual exclusion violated\n");
    return 1;
  }
  if (!relaxation_pays) {
    std::printf("FAIL: relaxed fast path slower than the seq_cst twin — a "
                "relaxation regressed into extra synchronization\n");
    return 1;
  }
  return 0;
}
