// aml::ipc recovery and steady-state cost, measured on the real shm path.
//
// Two questions a deployer of the shm lock service asks:
//   1. What does routing acquire/release through the shm segment cost over
//      the in-process table? (steady-state per-passage latency, both paths)
//   2. When a holder dies, how long until a survivor has the lock back?
//      (recover_dead() sweep latency, repeated over fresh simulated deaths)
//
// Death is simulated in-process: a leased session enters a stripe to
// kHolding, its registry slot is re-tagged (debug_set_os_pid) with a forged
// pid that cannot exist, and a survivor sweeps. That exercises the identical
// code path a real SIGKILL takes (the fork/SIGKILL variant lives in
// tests/ipc/shm_fork_test.cpp and the CI multiproc job) while keeping the
// bench single-process and signal-free.
//
// Wall-clock numbers: nondeterministic run to run. BENCH_ipc_recovery.json
// is committed at the repo root and CI-diffed with every numeric value
// normalized to zero (like BENCH_native_throughput.json): the diff catches
// schema drift — dropped measurements, renamed summary keys — without
// failing on honest jitter. The raw report is also a CI artifact.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "aml/core/abortable_lock.hpp"
#include "aml/harness/report.hpp"
#include "aml/harness/stats.hpp"
#include "aml/harness/table.hpp"
#include "aml/ipc/shm_table.hpp"

namespace {

using aml::harness::Summary;
using aml::harness::summarize;
using aml::harness::Table;
using aml::ipc::ShmNamedLockTable;
using aml::ipc::ShmTableConfig;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKey = 7;
constexpr std::uint32_t kSteadyOps = 20'000;
constexpr std::uint32_t kRecoveryRounds = 200;
// A pid that can never name a live process (pid_max tops out well below
// 2^31 - 1 on stock kernels), so dead() sees ESRCH immediately.
constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

ShmTableConfig bench_config() {
  ShmTableConfig cfg;
  cfg.nprocs = 4;
  cfg.stripes = 1;
  return cfg;
}

}  // namespace

int main() {
  aml::harness::BenchReport br("ipc_recovery");
  br.config("steady_ops", std::uint64_t{kSteadyOps})
      .config("recovery_rounds", std::uint64_t{kRecoveryRounds})
      .config("values", "wall-clock (nondeterministic); CI artifact only");

  const std::string seg = "/aml-bench-ipc-" + std::to_string(::getpid());
  std::string error;
  auto table = ShmNamedLockTable::create(seg, bench_config(), &error);
  if (table == nullptr) {
    std::fprintf(stderr, "shm create failed: %s\n", error.c_str());
    return 1;
  }

  bool ok = true;

  // --- Steady state: uncontended acquire/release through the shm segment.
  std::vector<std::uint64_t> shm_lat;
  shm_lat.reserve(kSteadyOps);
  {
    auto session = table->open_session();
    ok = ok && session.has_value();
    const auto wall0 = Clock::now();
    for (std::uint32_t op = 0; ok && op < kSteadyOps; ++op) {
      const auto t0 = Clock::now();
      { auto guard = session->acquire(kKey); }
      shm_lat.push_back(elapsed_ns(t0));
    }
    const double wall_s =
        static_cast<double>(elapsed_ns(wall0)) / 1e9;
    br.summary("shm_ops_per_sec",
               wall_s > 0 ? kSteadyOps / wall_s : 0.0);
  }

  // --- Reference: the same loop on the in-process AbortableLock.
  std::vector<std::uint64_t> native_lat;
  native_lat.reserve(kSteadyOps);
  {
    aml::AbortableLock lock(aml::LockConfig{.max_threads = 4});
    const auto wall0 = Clock::now();
    for (std::uint32_t op = 0; op < kSteadyOps; ++op) {
      const auto t0 = Clock::now();
      lock.enter(0);
      lock.exit(0);
      native_lat.push_back(elapsed_ns(t0));
    }
    const double wall_s =
        static_cast<double>(elapsed_ns(wall0)) / 1e9;
    br.summary("inprocess_ops_per_sec",
               wall_s > 0 ? kSteadyOps / wall_s : 0.0);
  }

  // --- Recovery: time from "survivor starts the sweep" to "dead holder's
  // passage forcibly exited and the slot reclaimed", repeated over fresh
  // victims. Includes the survivor's follow-up acquire to prove the lock is
  // actually free again.
  std::vector<std::uint64_t> sweep_lat;
  std::vector<std::uint64_t> reacquire_lat;
  sweep_lat.reserve(kRecoveryRounds);
  reacquire_lat.reserve(kRecoveryRounds);
  {
    auto survivor = table->open_session();
    ok = ok && survivor.has_value();
    for (std::uint32_t round = 0; ok && round < kRecoveryRounds; ++round) {
      auto victim = table->open_session();
      if (!victim.has_value()) {
        ok = false;
        break;
      }
      // Die holding: enter the stripe directly (no RAII guard to unwind),
      // then forge an ESRCH pid onto the victim's slot.
      const auto enter = table->stripe(0).enter(victim->id(), nullptr);
      ok = ok && enter.acquired;
      table->registry().debug_set_os_pid(victim->id(), kForgedDeadPid);

      const auto t0 = Clock::now();
      ok = ok && table->stripe_of(kKey) == 0 &&
           survivor->recover_dead() == 1;
      sweep_lat.push_back(elapsed_ns(t0));

      const auto t1 = Clock::now();
      auto guard = survivor->try_acquire_for(kKey, std::chrono::seconds(2));
      ok = ok && guard.has_value();
      reacquire_lat.push_back(elapsed_ns(t1));
    }
  }

  const Summary shm = summarize(shm_lat);
  const Summary native = summarize(native_lat);
  const Summary sweep = summarize(sweep_lat);
  const Summary reacquire = summarize(reacquire_lat);
  // The segment's own view of the same sweeps: the crash-surviving shm
  // histogram that aml_stat reports, cross-checked here against the
  // caller-side stopwatch (shm p50 ≤ caller p50 since it excludes the
  // registry scan that found the victim).
  const aml::obs::LatencyHistogram::Snapshot shm_sweep =
      table->shm_metrics().sweep_latency();
  br.summary("shm_latency_ns", shm)
      .summary("inprocess_latency_ns", native)
      .summary("recovery_sweep_ns", sweep)
      .summary("recovery_reacquire_ns", reacquire)
      .summary("shm_sweep_hist_count", std::uint64_t{shm_sweep.count})
      .summary("shm_sweep_hist_p50", std::uint64_t{shm_sweep.p50})
      .summary("shm_sweep_hist_p90", std::uint64_t{shm_sweep.p90})
      .summary("shm_sweep_hist_p99", std::uint64_t{shm_sweep.p99})
      .summary("recoveries_completed",
               std::uint64_t{table->recovery_stats().recovered_pids})
      .summary("forced_exits",
               std::uint64_t{table->recovery_stats().forced_exits})
      .summary("zombie_pids",
               std::uint64_t{table->recovery_stats().zombie_pids});

  Table t("aml::ipc per-passage latency and dead-holder recovery (ns)");
  t.headers({"measurement", "count", "p50", "p90", "p99", "max"});
  const auto add = [&t](const char* name, const Summary& s) {
    t.row({name, Table::num(s.count), Table::num(s.p50), Table::num(s.p90),
           Table::num(s.p99), Table::num(s.max)});
  };
  add("shm acquire/release", shm);
  add("in-process enter/exit", native);
  add("recovery sweep", sweep);
  add("post-recovery reacquire", reacquire);
  t.row({"sweep (shm histogram)", Table::num(shm_sweep.count),
         Table::num(shm_sweep.p50), Table::num(shm_sweep.p90),
         Table::num(shm_sweep.p99), "-"});
  t.print();
  br.table(t);
  br.write();

  ShmNamedLockTable::unlink(seg);
  if (!ok || table->recovery_stats().forced_exits != kRecoveryRounds) {
    std::fprintf(stderr, "FAIL: recovery contract violated (%llu/%u forced "
                         "exits)\n",
                 static_cast<unsigned long long>(
                     table->recovery_stats().forced_exits),
                 kRecoveryRounds);
    return 1;
  }
  // Every death here lands in a journaled window (kHolding), so the v3
  // recoverable-F&A arms must decide every single one — a nonzero zombie
  // count means a recovery regressed into the retire-and-park fallback.
  if (table->recovery_stats().zombie_pids != 0) {
    std::fprintf(stderr, "FAIL: %llu zombie pids (every bench death is "
                         "journal-decidable)\n",
                 static_cast<unsigned long long>(
                     table->recovery_stats().zombie_pids));
    return 1;
  }
  return 0;
}
