// Multi-key transactions on the lock table (counting CC model): ordered
// acquisition cost and deadline-storm behavior.
//
// Every process runs T transactions, each acquiring the stripes of k
// Zipfian keys in ascending stripe order (deadlock-free). Two regimes per
// group size: no aborts, and an abort storm where a fraction of attempts
// have their signal raised mid-wait — the all-or-nothing path then releases
// the prefix and the attempt retries once unsignalled (the lock-manager
// "deadline passed, back off, try again" loop). Reported: per-transaction
// RMR (completed vs aborted attempts) and the retry traffic, all
// deterministic per seed (byte-identical JSON, ctest-enforced).
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "aml/harness/report.hpp"
#include "aml/harness/stats.hpp"
#include "aml/harness/table.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/pal/rng.hpp"
#include "aml/sched/scheduler.hpp"
#include "aml/table/lock_table.hpp"

namespace {

using aml::harness::Summary;
using aml::harness::summarize;
using aml::harness::Table;
using aml::model::CountingCcModel;
using aml::model::Pid;

constexpr Pid kProcs = 8;
constexpr std::uint32_t kStripes = 8;
constexpr std::uint32_t kKeys = 32;
constexpr double kTheta = 0.99;
constexpr std::uint32_t kTxPerProc = 12;

struct MultiKeyResult {
  std::vector<std::uint64_t> complete_rmrs;  // completed transactions
  std::vector<std::uint64_t> aborted_rmrs;   // attempts that aborted
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t retries = 0;
};

MultiKeyResult run_multikey(std::uint32_t group, std::uint32_t abort_ppm,
                            std::uint64_t seed) {
  CountingCcModel model(kProcs);
  aml::table::LockTable<CountingCcModel> table(
      model,
      {.max_threads = kProcs, .stripes = kStripes, .tree_width = 8});
  aml::pal::ZipfDistribution zipf(kKeys, kTheta);
  model.reset_counters();

  // Pre-marked abort plan per (proc, tx), as in the long-lived harness.
  aml::pal::Xoshiro256 mark_rng(seed * 7919 + 13);
  std::vector<std::vector<bool>> marked(kProcs);
  for (Pid p = 0; p < kProcs; ++p) {
    marked[p].resize(kTxPerProc);
    for (std::uint32_t t = 0; t < kTxPerProc; ++t) {
      marked[p][t] = mark_rng.chance_ppm(abort_ppm);
    }
  }

  std::deque<std::atomic<bool>> signals(kProcs);
  std::deque<std::atomic<std::uint8_t>> wants(kProcs);
  auto raise_one = [&]() {
    for (Pid p = 0; p < kProcs; ++p) {
      if (wants[p].load(std::memory_order_acquire) == 1 &&
          !signals[p].load(std::memory_order_relaxed)) {
        signals[p].store(true, std::memory_order_release);
        return true;
      }
    }
    return false;
  };

  aml::sched::StepScheduler::Config cfg;
  cfg.seed = seed;
  aml::sched::StepScheduler scheduler(kProcs, std::move(cfg));
  scheduler.set_step_callback([&](std::uint64_t step) {
    if (step % 61 == 0) raise_one();
  });
  scheduler.set_idle_callback([&]() { return raise_one(); });

  MultiKeyResult result;
  std::vector<MultiKeyResult> per_proc(kProcs);

  model.set_hook(&scheduler);
  scheduler.run([&](Pid p) {
    aml::pal::Xoshiro256 rng(seed * 977 + p);
    auto& counters = model.counters(p);
    MultiKeyResult& mine = per_proc[p];
    for (std::uint32_t t = 0; t < kTxPerProc; ++t) {
      std::vector<std::uint64_t> keys;
      for (std::uint32_t k = 0; k < group; ++k) keys.push_back(zipf(rng));
      const std::vector<std::uint64_t> hashes = table.plan_hashes(keys);

      signals[p].store(false, std::memory_order_release);
      wants[p].store(marked[p][t] ? 1 : 0, std::memory_order_release);
      const std::uint64_t r0 = counters.rmrs;
      bool ok = table.enter_hashes(p, hashes, &signals[p]);
      wants[p].store(0, std::memory_order_release);
      if (!ok) {
        mine.aborted_rmrs.push_back(counters.rmrs - r0);
        mine.aborted++;
        // Deadline passed: back off (nothing held), retry unsignalled.
        mine.retries++;
        const std::uint64_t r1 = counters.rmrs;
        ok = table.enter_hashes(p, hashes, nullptr);
        if (ok) {
          table.exit_hashes(p, hashes);
          mine.complete_rmrs.push_back(counters.rmrs - r1);
          mine.completed++;
        }
        continue;
      }
      table.exit_hashes(p, hashes);
      mine.complete_rmrs.push_back(counters.rmrs - r0);
      mine.completed++;
    }
  });
  model.set_hook(nullptr);

  for (Pid p = 0; p < kProcs; ++p) {
    const MultiKeyResult& mine = per_proc[p];
    result.complete_rmrs.insert(result.complete_rmrs.end(),
                                mine.complete_rmrs.begin(),
                                mine.complete_rmrs.end());
    result.aborted_rmrs.insert(result.aborted_rmrs.end(),
                               mine.aborted_rmrs.begin(),
                               mine.aborted_rmrs.end());
    result.completed += mine.completed;
    result.aborted += mine.aborted;
    result.retries += mine.retries;
  }
  return result;
}

}  // namespace

int main() {
  aml::harness::BenchReport br("table_multikey");
  br.config("procs", std::uint64_t{kProcs})
      .config("stripes", std::uint64_t{kStripes})
      .config("keys", std::uint64_t{kKeys})
      .config("theta", kTheta)
      .config("tx_per_proc", std::uint64_t{kTxPerProc});

  Table table("Multi-key ordered acquisition — per-transaction RMR");
  table.headers({"keys/tx", "abort ppm", "completed", "aborted", "retries",
                 "mean RMR (done)", "max RMR (done)", "mean RMR (aborted)"});

  std::uint64_t total_completed = 0, total_aborted = 0, total_retries = 0;
  for (std::uint32_t group : {1u, 2u, 4u}) {
    for (std::uint32_t abort_ppm : {0u, 400000u}) {
      const MultiKeyResult r =
          run_multikey(group, abort_ppm, 31 + group * 7 + abort_ppm / 1000);
      const Summary done = summarize(r.complete_rmrs);
      const Summary ab = summarize(r.aborted_rmrs);
      table.row({Table::num(std::uint64_t{group}),
                 Table::num(std::uint64_t{abort_ppm}),
                 Table::num(r.completed), Table::num(r.aborted),
                 Table::num(r.retries), Table::num(done.mean),
                 Table::num(done.max), Table::num(ab.mean)});
      br.sample("group", static_cast<double>(group))
          .sample("abort_ppm", static_cast<double>(abort_ppm))
          .sample("mean_rmr_done", done.mean)
          .sample("max_rmr_done", static_cast<double>(done.max))
          .sample("mean_rmr_aborted", ab.mean)
          .sample("aborted", static_cast<double>(r.aborted));
      total_completed += r.completed;
      total_aborted += r.aborted;
      total_retries += r.retries;
    }
  }

  br.summary("total_completed", total_completed)
      .summary("total_aborted", total_aborted)
      .summary("total_retries", total_retries);
  table.print();
  br.table(table);
  br.write();
  return 0;
}
