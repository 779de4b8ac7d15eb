// Table 1, amortized column: the reproduction measurably beating the source
// paper on the workload it was never optimised for.
//
// Part 1 — steady no-abort passages on the counting CC model. The paper's
// long-lived lock pays the adaptive tree walk (O(log_W A) worst case) on
// every passage; Jayanti & Jayanti's queue lock (arxiv 1809.04561,
// baselines/jayanti.hpp) pays a constant handful of RMRs per passage when
// nobody aborts. Gate: the amortized lock's mean completed-passage RMR is at
// or below the paper lock's at every contention level.
//
// Part 2 — the same comparison under an abort storm, through LockTable's
// striping: a key's stripe is its key hash masked to a power-of-two stripe
// count, and the array is rebuilt wider (4 -> 8) between two quiesced
// phases. Both rows run the same traffic over a bench-local stripe array, one
// with every stripe on the paper lock (LockTable's stripe lock), one with
// every stripe on the amortized lock. Traffic is partitioned by phase-1
// stripe: steady contenders draw Zipf keys hashing to stripes 0/2 and never
// abort; stormy contenders hammer the keys of stripe 1 with mostly *marked*
// attempts — the abort signal is raised up front, so a marked attempt aborts
// the moment it would have to wait (a try-lock storm). Completers hold the
// lock across several scratch reads, so the stormy stripe is occupied most
// of the time and the storm's abort rate is high.
//
// In this cost model a completed amortized passage costs ~base (5-6 RMRs)
// plus ~3 RMRs per abandoned node it claims, and the paper lock's completed
// passage costs ~22 flat (part 1). In a mark-and-retry storm almost no abort
// strands — the aborter's next attempt revives its own abandoned node before
// any walker pays for it — so the amortized stormy mean barely moves off the
// no-abort base. Gate: the amortized stripes' mean completed-passage RMR is
// at or below the paper stripes'. Both gates return a nonzero exit code on
// regression so the CI bench smoke catches them, not just crashes.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "aml/baselines/baselines.hpp"
#include "aml/harness/report.hpp"
#include "aml/harness/rmr_experiment.hpp"
#include "aml/harness/stats.hpp"
#include "aml/harness/table.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/pal/rng.hpp"
#include "aml/sched/scheduler.hpp"
#include "aml/table/hash.hpp"
#include "aml/table/lock_table.hpp"

namespace {

using aml::harness::Summary;
using aml::harness::summarize;
using aml::harness::Table;
using aml::model::CountingCcModel;
using aml::model::Pid;

// --- Part 1: lock-vs-lock steady passages ----------------------------------

constexpr std::uint32_t kSteadyRounds = 16;  // passages per process

/// Paper lock, no aborts: reuse the harness's long-lived runner and keep only
/// the completed-passage enter+exit RMR totals.
std::vector<std::uint64_t> paper_steady(std::uint32_t n, std::uint64_t seed) {
  aml::harness::LongLivedOptions opts;
  opts.n = n;
  opts.w = 8;
  opts.find = aml::core::Find::kAdaptive;
  opts.rounds = kSteadyRounds;
  opts.abort_ppm = 0;
  opts.seed = seed;
  const auto run = aml::harness::run_long_lived<aml::core::VersionedSpace>(opts);
  std::vector<std::uint64_t> rmrs;
  for (const auto& rec : run.records) {
    if (rec.acquired) rmrs.push_back(rec.rmr_enter + rec.rmr_exit);
  }
  return rmrs;
}

/// Amortized lock, same shape: n processes, kSteadyRounds passages each under
/// the step scheduler, per-passage RMR deltas from the model counters.
std::vector<std::uint64_t> amortized_steady(std::uint32_t n,
                                            std::uint64_t seed) {
  CountingCcModel model(n);
  aml::baselines::JayantiAbortableLock<CountingCcModel> lock(model, n);
  model.reset_counters();

  std::vector<std::vector<std::uint64_t>> per_proc(n);
  aml::sched::StepScheduler::Config cfg;
  cfg.seed = seed;
  aml::sched::StepScheduler scheduler(n, std::move(cfg));
  model.set_hook(&scheduler);
  scheduler.run([&](Pid p) {
    auto& counters = model.counters(p);
    for (std::uint32_t r = 0; r < kSteadyRounds; ++r) {
      const std::uint64_t r0 = counters.rmrs;
      lock.enter(p, nullptr);
      lock.exit(p);
      per_proc[p].push_back(counters.rmrs - r0);
    }
  });
  model.set_hook(nullptr);

  std::vector<std::uint64_t> rmrs;
  for (const auto& v : per_proc) rmrs.insert(rmrs.end(), v.begin(), v.end());
  return rmrs;
}

// --- Part 2: abort-storm Zipf through the table's striping, per lock -------

constexpr Pid kProcs = 8;          // 3 steady + 5 stormy contenders
constexpr Pid kSteadyProcs = 3;
constexpr std::uint32_t kStripes1 = 4;   // phase 1; rebuilt to kStripes2
constexpr std::uint32_t kStripes2 = 8;
constexpr std::uint32_t kKeys = 64;
constexpr double kTheta = 0.99;          // YCSB-default skew within a bucket
constexpr std::uint32_t kPhaseRounds = 32;  // passages per process per phase
constexpr std::uint32_t kStormPpm = 950000;  // stormy attempts marked (try-lock)
constexpr std::uint32_t kHoldWords = 8;  // CS length: scratch reads per hold

using PaperLock = aml::table::LockTable<CountingCcModel>::StripeLock;
using AmortizedLock = aml::baselines::JayantiAbortableLock<CountingCcModel>;

bool acquired(bool granted) { return granted; }
bool acquired(const aml::core::EnterResult& result) { return result.acquired; }

/// LockTable's key -> stripe map over one lock type: stripe = key_hash(key)
/// masked to the stripe count. grow() rebuilds the array wider and must only
/// run while every process is quiesced (nothing held, nothing in flight).
template <typename Lock>
class StripeArray {
 public:
  StripeArray(CountingCcModel& model, std::uint32_t count) : model_(model) {
    grow(count);
  }

  void grow(std::uint32_t count) {
    locks_.clear();
    for (std::uint32_t s = 0; s < count; ++s) {
      if constexpr (std::is_same_v<Lock, AmortizedLock>) {
        locks_.push_back(std::make_unique<Lock>(model_, kProcs));
      } else {
        locks_.push_back(std::make_unique<Lock>(
            model_, typename Lock::Config{.nprocs = kProcs,
                                          .w = 8,
                                          .find = aml::core::Find::kAdaptive}));
      }
    }
  }

  bool enter(Pid p, std::uint64_t key, const std::atomic<bool>* signal) {
    return acquired(lock_of(key).enter(p, signal));
  }
  void exit(Pid p, std::uint64_t key) { lock_of(key).exit(p); }

 private:
  Lock& lock_of(std::uint64_t key) {
    const auto mask = static_cast<std::uint32_t>(locks_.size() - 1);
    return *locks_[static_cast<std::uint32_t>(aml::table::key_hash(key)) &
                   mask];
  }

  CountingCcModel& model_;
  std::vector<std::unique_ptr<Lock>> locks_;
};

struct TableRun {
  std::vector<std::uint64_t> steady_rmrs;  // completed, steady contenders
  std::vector<std::uint64_t> stormy_rmrs;  // completed, stormy contenders
  std::uint64_t aborted = 0;
  std::uint64_t abort_rmrs = 0;

  std::vector<std::uint64_t> all_completed() const {
    std::vector<std::uint64_t> all = steady_rmrs;
    all.insert(all.end(), stormy_rmrs.begin(), stormy_rmrs.end());
    return all;
  }
};

/// Keys whose phase-1 stripe is in `want`. Stripe growth appends mask bits,
/// so a phase-2 stripe's low bits still name the phase-1 parent: the
/// steady/stormy partition survives the rebuild.
std::vector<std::uint64_t> keys_on_stripes(
    std::initializer_list<std::uint32_t> want) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::uint32_t s =
        static_cast<std::uint32_t>(aml::table::key_hash(key)) &
        (kStripes1 - 1);
    for (std::uint32_t w : want) {
      if (s == w) {
        keys.push_back(key);
        break;
      }
    }
  }
  return keys;
}

template <typename Lock>
void run_phase(StripeArray<Lock>& table, CountingCcModel& model,
               CountingCcModel::Word* const* scratch, std::uint64_t seed,
               TableRun& out) {
  // Steady traffic spreads over stripes 0 and 2; the storm concentrates on
  // stripe 1 (stripe 3 stays idle).
  const std::vector<std::uint64_t> steady_keys = keys_on_stripes({0, 2});
  const std::vector<std::uint64_t> stormy_keys = keys_on_stripes({1});

  // Per-(process, round) abort marking, fixed up front for determinism.
  // A marked attempt enters with its signal already raised: it aborts at the
  // first wait it would otherwise block on — a try-lock under contention.
  aml::pal::Xoshiro256 mark_rng(seed * 7919 + 13);
  std::vector<std::vector<bool>> marked(kProcs);
  for (Pid p = 0; p < kProcs; ++p) {
    marked[p].resize(kPhaseRounds, false);
    for (std::uint32_t r = 0; r < kPhaseRounds; ++r) {
      if (p >= kSteadyProcs) marked[p][r] = mark_rng.chance_ppm(kStormPpm);
    }
  }

  std::deque<std::atomic<bool>> signals(kProcs);

  aml::sched::StepScheduler::Config cfg;
  cfg.seed = seed;
  aml::sched::StepScheduler scheduler(kProcs, std::move(cfg));

  std::vector<std::vector<std::uint64_t>> per_proc(kProcs);
  std::vector<std::uint64_t> aborted(kProcs, 0);
  std::vector<std::uint64_t> abort_rmrs(kProcs, 0);

  model.set_hook(&scheduler);
  scheduler.run([&](Pid p) {
    const auto& bucket = p < kSteadyProcs ? steady_keys : stormy_keys;
    aml::pal::Xoshiro256 rng(seed * 131 + p);
    aml::pal::ZipfDistribution zipf(bucket.size(), kTheta);
    auto& counters = model.counters(p);
    for (std::uint32_t r = 0; r < kPhaseRounds; ++r) {
      const std::uint64_t key = bucket[zipf(rng) % bucket.size()];
      signals[p].store(marked[p][r], std::memory_order_release);
      const std::uint64_t r0 = counters.rmrs;
      const bool ok = table.enter(p, key, &signals[p]);
      if (ok) {
        // Hold the lock across a few gated reads so the stormy stripe stays
        // occupied and marked probes really do hit a busy lock. Same cost
        // for every configuration.
        for (std::uint32_t i = 0; i < kHoldWords; ++i) {
          model.read(p, *scratch[i]);
        }
        table.exit(p, key);
        per_proc[p].push_back(counters.rmrs - r0);
      } else {
        aborted[p]++;
        abort_rmrs[p] += counters.rmrs - r0;
      }
    }
  });
  model.set_hook(nullptr);

  for (Pid p = 0; p < kProcs; ++p) {
    auto& sink = p < kSteadyProcs ? out.steady_rmrs : out.stormy_rmrs;
    sink.insert(sink.end(), per_proc[p].begin(), per_proc[p].end());
    out.aborted += aborted[p];
    out.abort_rmrs += abort_rmrs[p];
  }
}

template <typename Lock>
TableRun run_table(std::uint64_t seed) {
  CountingCcModel model(kProcs);
  StripeArray<Lock> table(model, kStripes1);
  std::vector<CountingCcModel::Word*> scratch(kHoldWords);
  for (auto& w : scratch) w = model.alloc(1, 0);
  model.reset_counters();

  TableRun out;
  run_phase(table, model, scratch.data(), seed, out);
  table.grow(kStripes2);  // quiesced between phases
  run_phase(table, model, scratch.data(), seed + 1, out);
  return out;
}

}  // namespace

int main() {
  aml::harness::BenchReport br("table1_amortized");
  br.config("steady_rounds", std::uint64_t{kSteadyRounds})
      .config("table_procs", std::uint64_t{kProcs})
      .config("table_steady_procs", std::uint64_t{kSteadyProcs})
      .config("table_stripes_phase1", std::uint64_t{kStripes1})
      .config("table_stripes_phase2", std::uint64_t{kStripes2})
      .config("table_keys", std::uint64_t{kKeys})
      .config("table_theta", kTheta)
      .config("table_phase_rounds", std::uint64_t{kPhaseRounds})
      .config("table_storm_ppm", std::uint64_t{kStormPpm});

  // Part 1: steady no-abort passages, paper vs amortized, by contention.
  Table steady("Table 1, amortized column — completed-passage RMR, no aborts "
               "(counting CC)");
  steady.headers({"procs", "paper mean", "paper max", "amortized mean",
                  "amortized max"});
  bool part1_ok = true;
  for (std::uint32_t n : {2u, 4u, 8u, 16u}) {
    const Summary paper = summarize(paper_steady(n, 500 + n));
    const Summary amort = summarize(amortized_steady(n, 900 + n));
    steady.row({Table::num(std::uint64_t{n}), Table::num(paper.mean),
                Table::num(paper.max), Table::num(amort.mean),
                Table::num(amort.max)});
    br.sample("steady_procs", static_cast<double>(n))
        .sample("steady_paper_mean_rmr", paper.mean)
        .sample("steady_amortized_mean_rmr", amort.mean);
    if (amort.mean > paper.mean) part1_ok = false;
  }
  steady.print();

  // Part 2: abort-storm Zipf through the table's striping, one row per lock.
  const TableRun pure_paper = run_table<PaperLock>(7000);
  const TableRun pure_amortized = run_table<AmortizedLock>(7000);

  const Summary paper_s = summarize(pure_paper.all_completed());
  const Summary amort_s = summarize(pure_amortized.all_completed());

  Table storm("Striped table — abort-storm Zipf, completed-passage RMR across "
              "both phases");
  storm.headers({"config", "completed", "aborted", "mean RMR",
                 "steady mean", "stormy mean"});
  const auto storm_row = [&](const char* name, const TableRun& r,
                             const Summary& s) {
    storm.row({name, Table::num(std::uint64_t{s.count}),
               Table::num(r.aborted), Table::num(s.mean),
               Table::num(summarize(r.steady_rmrs).mean),
               Table::num(summarize(r.stormy_rmrs).mean)});
  };
  storm_row("pure paper", pure_paper, paper_s);
  storm_row("pure amortized", pure_amortized, amort_s);
  storm.print();
  const std::uint64_t storm_attempts =
      pure_amortized.stormy_rmrs.size() + pure_amortized.aborted;
  const double storm_rate =
      storm_attempts == 0
          ? 0.0
          : static_cast<double>(pure_amortized.aborted) /
                static_cast<double>(storm_attempts);
  std::printf("\nstorm abort rate (amortized run) = %.3f\n", storm_rate);

  const bool part2_ok = amort_s.mean <= paper_s.mean;
  br.summary("storm_paper_mean_rmr", paper_s.mean)
      .summary("storm_amortized_mean_rmr", amort_s.mean)
      .summary("storm_abort_rate", storm_rate)
      .summary("amortized_leq_paper_steady", std::uint64_t{part1_ok ? 1u : 0u})
      .summary("amortized_leq_paper_storm", std::uint64_t{part2_ok ? 1u : 0u});

  std::printf("\nsteady: amortized <= paper at every contention level: %s\n",
              part1_ok ? "yes" : "NO — regression");
  std::printf("storm: amortized <= paper: %s\n",
              part2_ok ? "yes" : "NO — regression");
  br.table(steady);
  br.table(storm);
  br.write();
  // Both claims are this bench's contract; fail the CI smoke run loudly.
  return part1_ok && part2_ok ? 0 : 1;
}
