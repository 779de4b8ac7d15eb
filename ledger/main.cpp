// ledger_bench: the repo benchmark. One closed-loop workload per run, driven
// through both frontends users deploy (aml::table::NamedLockTable in-process,
// aml::ipc::ShmNamedLockTable across processes), with every outcome checked.
//
//   ledger_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the workload's
// stream down a ladder of per-layer rungs and through span-recording
// frontends, and prints the per-layer ledger. Either way the last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The full report (host facts, ratio bases, sample counts) and, with
// --trace 1, a Chrome trace-event span file go to --out.
//
// Workloads (see README.md for why each exists):
//   solo            1 thread, uniform keys, blocking acquire
//   zipf-contended  4 threads, Zipf 0.99 over 4096 keys, blocking acquire
//   deadline-storm  3 threads, Zipf 0.99 over 64 keys, try_acquire_until
//                   (now + 10us), holders spin 40us w.p. 1/8
//   holder-crash    shm only: a victim dies holding a key's stripe, a
//                   survivor runs recover_dead() and re-acquires the key
//
// Every run reports every metric of its kind. A metric whose mechanism the
// workload's own stream bypasses comes from a complement probe, interleaved
// with the stream: crash rounds on the workload's keys where it has no
// deaths, a one-thread blocking stream on holder-crash, and in the ledger
// the deadline-storm stream where the workload has no deadlines. Each
// metric is taken once per round, and the run reports a round from its
// better side (see ledger.hpp, better_index).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aml/baselines/ticket.hpp"
#include "aml/core/abortable_lock.hpp"
#include "aml/core/adapters.hpp"
#include "aml/harness/rmr_experiment.hpp"
#include "aml/ipc/shm_lock.hpp"
#include "aml/ipc/shm_table.hpp"
#include "aml/model/native.hpp"
#include "aml/obs/histogram.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/table/lock_table.hpp"
#include "aml/table/named_table.hpp"
#include "loadgen.hpp"
#include "ledger.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_CXX_FLAGS
#define LEDGER_CXX_FLAGS "unknown"
#endif

namespace {

using namespace ledger;
using aml::ipc::ShmNamedLockTable;
using aml::ipc::ShmTableConfig;
using aml::table::NamedLockTable;
using aml::table::ObservedNamedLockTable;
using aml::table::TableConfig;

// A pid that cannot name a live process (pid_max is far below 2^31 - 1), so
// the registry's death check sees ESRCH at once.
constexpr std::uint64_t kForgedDeadPid = 0x7FFF'FFFF;
constexpr auto kDrainBudget = std::chrono::milliseconds(200);
/// Budget of the timed rungs on blocking workloads: long enough never to
/// fire, so the rung prices arming and cancelling the deadline alone.
constexpr auto kNeverFires = std::chrono::seconds(1);
constexpr int kSetupReps = 3;    ///< set-ups per round
constexpr int kSegmentReps = 9;  ///< create/attach pairs in a traced run
constexpr std::size_t kFileSpansPerThread = 4096;

// --- the run's bookkeeping ---------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> moves;  ///< per-layer: what it moves
  struct PhaseSpan {
    std::string name;
    std::uint64_t t0, t1;
  };
  std::vector<PhaseSpan> phase_spans;  ///< one per slice, for the span file

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    errors.push_back(why);
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  void add(Metric m, const char* moves_what = nullptr) {
    if (moves_what != nullptr) moves[m.name] = moves_what;
    metrics.push_back(std::move(m));
  }
  void note_slice(const std::string& name, const SliceInfo& info) {
    attempted += info.attempts;
    phase_spans.push_back({name, info.t0, info.t1});
    if (info.exclusion_errors != 0) {
      fail(info.exclusion_errors,
           name + ": " + std::to_string(info.exclusion_errors) +
               " keys whose counter != grants (mutual exclusion broken)");
    }
  }
};

std::string seg_name() {
  static int n = 0;
  return "/aml-ledger-" + std::to_string(::getpid()) + "-" +
         std::to_string(n++);
}

TableConfig table_config() {
  return TableConfig{.max_threads = kSlots, .stripes = kStripes,
                     .tree_width = kTreeWidth};
}

ShmTableConfig shm_config(std::uint32_t ring) {
  ShmTableConfig cfg;
  cfg.nprocs = kSlots;
  cfg.stripes = kStripes;
  cfg.tree_width = kTreeWidth;
  cfg.ring_capacity = ring;
  return cfg;
}

/// Create a segment and drop its name at once: the mapping lives on, and a
/// crashed run leaves nothing behind in the shm namespace.
std::unique_ptr<ShmNamedLockTable> make_shm(std::uint32_t ring) {
  const std::string name = seg_name();
  std::string error;
  auto shm = ShmNamedLockTable::create(name, shm_config(ring), &error);
  ShmNamedLockTable::unlink(name);
  if (shm == nullptr) {
    std::fprintf(stderr, "shm create failed: %s\n", error.c_str());
    std::exit(2);
  }
  return shm;
}

ShmNamedLockTable::Session shm_session(ShmNamedLockTable& shm) {
  auto s = shm.open_session();
  if (!s.has_value()) {
    std::fprintf(stderr, "shm session slots exhausted\n");
    std::exit(2);
  }
  return std::move(*s);
}

/// One key per stripe, for the drain checks.
std::vector<std::uint32_t> probe_keys() {
  std::vector<std::uint32_t> out(kStripes, kKeySpace);
  std::uint32_t found = 0;
  for (std::uint32_t k = 0; k < kKeySpace && found < kStripes; ++k) {
    if (out[stripe_of(k)] == kKeySpace) {
      out[stripe_of(k)] = k;
      found++;
    }
  }
  return out;
}

/// "A timed-out attempt never holds a guard": once a phase's threads are
/// gone, every stripe must be free. Returns the stripes that are not.
template <typename Session>
std::uint64_t undrained(Session& s) {
  std::uint64_t stuck = 0;
  for (const std::uint32_t key : probe_keys()) {
    auto g = s.try_acquire_for(std::uint64_t{key}, kDrainBudget);
    if (!g) stuck++;
  }
  return stuck;
}

// --- frontends and set-up ----------------------------------------------------

struct Frontends {
  std::unique_ptr<NamedLockTable> table;
  std::unique_ptr<ShmNamedLockTable> shm;
};

/// Construct both frontends, create and seal the segment, and open every
/// session slot on each: what a service pays before its first passage.
Frontends set_up(double* seconds) {
  const auto t0 = Clock::now();
  Frontends f;
  f.table = std::make_unique<NamedLockTable>(table_config());
  f.shm = make_shm(1024);
  {
    std::vector<NamedLockTable::Session> ts;
    std::vector<ShmNamedLockTable::Session> ss;
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      ts.push_back(f.table->open_session());
      ss.push_back(shm_session(*f.shm));
    }
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return f;
}

// --- end-to-end phases -------------------------------------------------------

struct StripeTotals {
  std::uint64_t acquisitions = 0, aborts = 0, max_stripe = 0;
};

template <typename Tbl>
StripeTotals stripe_totals(const Tbl& t) {
  StripeTotals out;
  for (std::uint32_t s = 0; s < t.stripe_count(); ++s) {
    const auto v = t.stripe_stats(s);
    out.acquisitions += v.acquisitions;
    out.aborts += v.aborts;
    out.max_stripe = std::max(out.max_stripe, v.acquisitions);
  }
  return out;
}

/// One slice of a stream through NamedLockTable sessions, then the checks:
/// every stripe drained, and the table's own abort count equal to the
/// timeouts its callers saw.
template <typename Tbl>
void table_phase(Run& run, Tbl& table, PhaseResult& acc,
                 const std::string& name, Discipline d, nanoseconds budget,
                 const std::vector<Stream>& streams, const TrialPlan& plan,
                 std::vector<SpanBuffer>* spans = nullptr) {
  const StripeTotals before = stripe_totals(table);
  const SliceInfo info = run_phase(
      acc, d, budget, streams, plan,
      [&](std::uint32_t tid) {
        return SessionWorker<typename Tbl::Session>{
            table.open_session(),
            spans != nullptr ? &(*spans)[tid] : nullptr, tid};
      },
      spans);
  run.note_slice(name, info);
  const StripeTotals after = stripe_totals(table);
  if (after.aborts - before.aborts != info.timeouts) {
    run.fail(1, name + ": StripeStats aborts " +
                    std::to_string(after.aborts - before.aborts) +
                    " != caller-observed timeouts " +
                    std::to_string(info.timeouts));
  }
  auto s = table.open_session();
  if (const std::uint64_t stuck = undrained(s); stuck != 0) {
    run.fail(stuck, name + ": " + std::to_string(stuck) +
                        " stripes still held after the slice");
  }
}

void shm_phase(Run& run, ShmNamedLockTable& shm, PhaseResult& acc,
               const std::string& name, Discipline d, nanoseconds budget,
               const std::vector<Stream>& streams, const TrialPlan& plan,
               std::vector<SpanBuffer>* spans = nullptr) {
  const SliceInfo info = run_phase(
      acc, d, budget, streams, plan,
      [&](std::uint32_t tid) {
        return SessionWorker<ShmNamedLockTable::Session>{
            shm_session(shm), spans != nullptr ? &(*spans)[tid] : nullptr,
            tid};
      },
      spans);
  run.note_slice(name, info);
  auto s = shm_session(shm);
  if (const std::uint64_t stuck = undrained(s); stuck != 0) {
    run.fail(stuck, name + ": " + std::to_string(stuck) +
                        " stripes still held after the slice");
  }
}

/// The better-side value of a per-round percentile, over the rounds whose
/// tail was thick enough to define it; `count` sums their samples. Fails the
/// run when fewer than half the rounds define it.
template <typename R>
Metric round_percentile(Run& run, const std::string& name,
                        const std::string& unit, const std::vector<R>& rounds,
                        std::optional<double> R::*field,
                        std::uint64_t R::*count, double scale = 1.0) {
  std::vector<double> v;
  std::uint64_t n = 0;
  for (const R& r : rounds) {
    if (const auto& x = r.*field) {
      v.push_back(*x * scale);
      n += r.*count;
    }
  }
  if (v.empty() || 2 * v.size() < rounds.size()) {
    run.fail(0, name + ": most rounds have fewer than " +
                    std::to_string(kTailSamples) +
                    " samples beyond the percentile");
  }
  Metric m = sampled(name, unit, better_value(v, true), n);
  m.rounds = std::move(v);
  return m;
}

/// A per-round figure with no sample count: its better-side value, and
/// every round's.
template <typename R>
Metric round_metric(const std::string& name, const std::string& unit,
                    const std::vector<R>& rounds, double R::*field,
                    bool lower_is_better) {
  std::vector<double> v;
  for (const R& r : rounds) v.push_back(r.*field);
  Metric m = plain(name, unit, better_value(v, lower_is_better));
  m.rounds = std::move(v);
  return m;
}

/// Timed-out over attempted, pooled over every round.
Ratio timeout_ratio(const std::vector<Round>& rounds) {
  Ratio r;
  for (const Round& x : rounds) {
    r.num += static_cast<double>(x.timeouts);
    r.den += static_cast<double>(x.attempts);
  }
  return r;
}

/// Deadline to return over every timed-out attempt of both frontends,
/// pooled: one slice holds too few timeouts for a p99.
Metric overshoot_p99(Run& run, const PhaseResult& table,
                     const PhaseResult& shm) {
  std::vector<std::uint64_t> all;
  for (const PhaseResult* p : {&table, &shm}) {
    for (const Round& r : p->rounds) {
      all.insert(all.end(), r.overshoot_ns.begin(), r.overshoot_ns.end());
    }
  }
  const auto p99 = percentile(all, 0.99);
  if (!p99) run.fail(0, "abort_overshoot_p99_us: too few timeouts");
  return sampled("abort_overshoot_p99_us", "us", p99.value_or(0) * 1e-3,
                 all.size());
}

// --- holder crash ------------------------------------------------------------

/// One slice of crash rounds, summarized.
struct CrashRound {
  std::optional<double> p50, p99;   ///< recovery: sweep start to re-held
  std::optional<double> sweep_p50, sweep_p99, reacquire_p50;
  std::uint64_t samples = 0;
};

struct CrashResult {
  std::vector<CrashRound> rounds;
  std::uint64_t crashes = 0;
  std::uint64_t forced_exits = 0;
  std::uint64_t zombie_pids = 0;
  std::uint64_t cursor = 0;  ///< next stream entry
};

/// One slice of crashes. In each a victim session enters a key's stripe
/// and "dies": its registry slot is re-tagged with a pid that cannot exist,
/// the identical path a SIGKILL leaves. The survivor sweeps and re-acquires
/// the key; the recovery time runs from the sweep's start to the survivor
/// holding the key.
void crash_phase(Run& run, ShmNamedLockTable& shm, CrashResult& acc,
                 const Stream& stream, const TrialPlan& plan) {
  const auto stats0 = shm.recovery_stats();
  // The crashes run on this (the coordinating) thread: move it with the
  // round like the workers, then back to its own CPU.
  pin_to(worker_slot(0, 1, plan.round));
  auto survivor = shm_session(shm);
  std::uint64_t crashes = 0, bad = 0;
  const std::uint64_t span_t0 = now_ns();
  std::vector<std::uint64_t> rec, sweep, reacquire;
  auto window = [&](double seconds, bool measured) {
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < end) {
      const std::uint32_t key = stream.key[acc.cursor++ & (kStreamLen - 1)];
      const std::uint32_t s = shm.stripe_of(std::uint64_t{key});
      auto victim = shm_session(shm);
      if (!shm.stripe(s).enter(victim.id(), nullptr).acquired) {
        bad++;
        return;
      }
      shm.registry().debug_set_os_pid(victim.id(), kForgedDeadPid);
      const auto t0 = Clock::now();
      const std::uint32_t repaired = survivor.recover_dead();
      const auto t1 = Clock::now();
      if (repaired != 1) {
        bad++;
        return;
      }
      // Blocking, as a survivor would: a sweep that left the stripe held
      // hangs here, and the runner's time limit fails the run.
      auto guard = survivor.acquire(std::uint64_t{key});
      const auto t2 = Clock::now();
      guard.release();
      crashes++;
      if (measured) {
        rec.push_back(to_ns(t2 - t0));
        sweep.push_back(to_ns(t1 - t0));
        reacquire.push_back(to_ns(t2 - t1));
      }
      // `victim` closes here: a no-op, the sweep took its lease.
    }
  };
  window(plan.warmup_s, false);
  window(plan.window_s, true);
  CrashRound round;
  round.samples = rec.size();
  round.p50 = percentile(rec, 0.50);
  round.p99 = percentile(std::move(rec), 0.99);
  round.sweep_p50 = percentile(sweep, 0.50);
  round.sweep_p99 = percentile(std::move(sweep), 0.99);
  round.reacquire_p50 = percentile(std::move(reacquire), 0.50);
  acc.rounds.push_back(round);
  pin_to(allowed_cpus().size() - 1);
  run.phase_spans.push_back({"shm.crash", span_t0, now_ns()});
  run.attempted += crashes + bad;
  acc.crashes += crashes;
  if (bad != 0) {
    run.fail(bad, "holder-crash: " + std::to_string(bad) +
                      " rounds where the sweep did not repair exactly one "
                      "victim");
  }
  const auto& stats = shm.recovery_stats();
  const std::uint64_t exits = stats.forced_exits - stats0.forced_exits;
  const std::uint64_t zombies = stats.zombie_pids - stats0.zombie_pids;
  acc.forced_exits += exits;
  acc.zombie_pids += zombies;
  if (exits != crashes) {
    run.fail(1, "holder-crash: forced_exits " + std::to_string(exits) +
                    " != crashes " + std::to_string(crashes));
  }
  if (zombies != 0) {
    run.fail(zombies, "holder-crash: " + std::to_string(zombies) +
                          " zombie pids (every death here is "
                          "journal-decidable)");
  }
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  StreamSpec stream;  ///< the stream both frontends carry
  bool deadline_probe;  ///< stream has no deadlines: the ledger adds a probe
  // Shares of --seconds: per frontend stream, crash rounds.
  double stream_share, crash_share;
};

constexpr KeyDist kUniform{kKeySpace, 0.0};
constexpr KeyDist kZipfWide{kKeySpace, 0.99};
constexpr KeyDist kZipfNarrow{64, 0.99};

const Workload kWorkloads[] = {
    {"solo", {Discipline::kBlock, 1, kUniform}, true, 0.40, 0.20},
    {"zipf-contended", {Discipline::kBlock, 4, kZipfWide}, true, 0.40, 0.20},
    {"deadline-storm", {Discipline::kDeadline, 3, kZipfNarrow}, false, 0.40,
     0.20},
    {"holder-crash", {Discipline::kBlock, 1, kUniform}, true, 0.30, 0.40},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

nanoseconds budget_of(Discipline d) {
  return d == Discipline::kDeadline ? nanoseconds(kDeadlineBudget)
                                    : nanoseconds(kNeverFires);
}

double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Cost of one steady_clock read, batched: every latency sample includes one.
double clock_read_ns() {
  constexpr int kReads = 1 << 20;
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    Clock::time_point last{};
    for (int k = 0; k < kReads; ++k) last = Clock::now();
    per.push_back(static_cast<double>(to_ns(last - t0)) / kReads);
  }
  return median(per);
}

/// Rounds a run's phases are interleaved in.
constexpr std::uint32_t kRounds = 12;

void end_to_end(Run& run, const Workload& w, Frontends& f,
                std::vector<double>& setups) {
  const StreamSpec& spec = w.stream;
  const auto streams = make_streams(spec, run.seed);
  const nanoseconds budget = budget_of(spec.discipline);
  const Discipline d = spec.discipline;
  const auto crash_stream =
      make_streams({Discipline::kBlock, 1, spec.dist}, run.seed ^ 0xC4);

  PhaseResult ts, ss;
  CrashResult cr;
  std::vector<Slice> slices = {
      {w.stream_share, true,
       [&](const TrialPlan& p) {
         table_phase(run, *f.table, ts, "table.stream", d, budget, streams, p);
       }},
      {w.stream_share, true,
       [&](const TrialPlan& p) {
         shm_phase(run, *f.shm, ss, "shm.stream", d, budget, streams, p);
       }},
      {w.crash_share, false,
       [&](const TrialPlan& p) {
         crash_phase(run, *f.shm, cr, crash_stream[0], p);
       }},
      // Set-up is timed in every round too, so its figure sees the whole run.
      {0.0, false,
       [&](const TrialPlan&) {
         for (int rep = 0; rep < kSetupReps; ++rep) {
           double s = 0;
           Frontends spare = set_up(&s);
           setups.push_back(s);
         }
       }},
  };
  interleave(slices, run.seconds, kRounds);
  const double setup_s = median(setups);

  run.add(plain("setup_s", "s", setup_s));
  run.add(plain("peak_rss_mb", "MiB", peak_rss_mib()));
  run.add(round_metric("table_ops_s", "1/s", ts.rounds, &Round::ops_s, false));
  run.add(round_percentile(run, "table_p50_ns", "ns", ts.rounds, &Round::p50,
                           &Round::samples));
  run.add(round_percentile(run, "table_p99_ns", "ns", ts.rounds, &Round::p99,
                           &Round::samples));
  run.add(round_metric("shm_ops_s", "1/s", ss.rounds, &Round::ops_s, false));
  run.add(round_percentile(run, "shm_p50_ns", "ns", ss.rounds, &Round::p50,
                           &Round::samples));
  run.add(round_percentile(run, "shm_p99_ns", "ns", ss.rounds, &Round::p99,
                           &Round::samples));
  run.add(round_percentile(run, "recovery_p50_us", "us", cr.rounds,
                           &CrashRound::p50, &CrashRound::samples, 1e-3));
  run.add(round_percentile(run, "recovery_p99_us", "us", cr.rounds,
                           &CrashRound::p99, &CrashRound::samples, 1e-3));
}

// --- the per-layer ladder ----------------------------------------------------

// The floors cannot abort: their rungs always block, so `timed` is never
// called; it exists because the runner's deadline branch names it.
struct MutexWorker {
  std::vector<aml::pal::CachePadded<std::mutex>>* locks;
  template <typename Body>
  void block(const Op& op, Body&& body) {
    std::lock_guard<std::mutex> g((*locks)[op.stripe].value);
    body();
  }
  template <typename Body>
  bool timed(const Op&, Clock::time_point, Body&&) { return false; }
};

struct TicketWorker {
  using Lock = aml::baselines::TicketLock<aml::model::NativeModel>;
  std::vector<std::unique_ptr<Lock>>* locks;
  std::uint32_t tid;
  template <typename Body>
  void block(const Op& op, Body&& body) {
    Lock& l = *(*locks)[op.stripe];
    l.enter(tid, nullptr);
    body();
    l.exit(tid);
  }
  template <typename Body>
  bool timed(const Op&, Clock::time_point, Body&&) { return false; }
};

template <typename Lock>
std::vector<std::unique_ptr<Lock>> abortable_locks() {
  std::vector<std::unique_ptr<Lock>> v;
  for (std::uint32_t s = 0; s < kStripes; ++s) {
    v.push_back(std::make_unique<Lock>(
        aml::LockConfig{.max_threads = kSlots, .tree_width = kTreeWidth}));
  }
  return v;
}

/// Merge per-stripe hand-off histograms and take the nearest-rank bucket
/// bound, as obs::LatencyHistogram does for one.
std::uint64_t merged_hist_p50(
    const std::vector<std::unique_ptr<aml::obs::Metrics>>& sinks) {
  std::array<std::uint64_t, aml::obs::LatencyHistogram::kBuckets> b{};
  std::uint64_t count = 0;
  for (const auto& s : sinks) {
    const auto snap = s->handoff().snapshot();
    for (std::size_t i = 0; i < b.size(); ++i) b[i] += snap.buckets[i];
    count += snap.count;
  }
  if (count == 0) return 0;
  const std::uint64_t rank = (count + 1) / 2;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    seen += b[i];
    if (seen >= rank) return aml::obs::LatencyHistogram::bucket_upper(i);
  }
  return 0;
}

double rung_ns(const PhaseResult& r) {
  return round_metric("", "", r.rounds, &Round::passage_ns, true).value;
}

/// Exact counting-CC RMRs per granted passage (aborted attempts' RMRs
/// included in the numerator).
Ratio longlived_rmr(aml::model::Pid n, std::uint32_t abort_ppm,
                    std::uint64_t seed, bool* mutex_ok) {
  aml::harness::LongLivedOptions o;
  o.n = n;
  o.w = kTreeWidth;
  o.rounds = 64;
  o.abort_ppm = abort_ppm;
  o.seed = seed;
  const auto r = aml::harness::run_long_lived(o);
  *mutex_ok = *mutex_ok && r.mutex_ok;
  Ratio out;
  for (const auto& rec : r.records) out.num += rec.rmr_total();
  out.den = r.completed;
  return out;
}

Ratio oneshot_rmr(aml::model::Pid n, std::uint32_t abort_ppm,
                  std::uint64_t seed, bool* mutex_ok) {
  Ratio out;
  aml::pal::Xoshiro256 rng(seed);
  for (int rep = 0; rep < 32; ++rep) {
    aml::harness::SinglePassOptions opts;
    opts.seed = seed + rep;
    opts.plans.resize(n);
    for (aml::model::Pid p = 1; p < n; ++p) {
      if (rng.chance_ppm(abort_ppm)) {
        opts.plans[p].when = aml::harness::AbortWhen::kOnIdle;
      }
    }
    const auto r = aml::harness::oneshot_cc_run(n, kTreeWidth,
                                                aml::core::Find::kAdaptive,
                                                opts);
    *mutex_ok = *mutex_ok && r.mutex_ok;
    for (const auto& rec : r.records) out.num += rec.rmr_total();
    out.den += r.completed;
  }
  return out;
}

constexpr std::uint32_t kTraceRounds = 6;

void per_layer(Run& run, const Workload& w, Frontends& f) {
  const StreamSpec& spec = w.stream;
  const Discipline d = spec.discipline;
  const bool deadline = d == Discipline::kDeadline;
  const auto streams = make_streams(spec, run.seed);
  const nanoseconds budget = budget_of(d);
  const auto crash_stream =
      make_streams({Discipline::kBlock, 1, spec.dist}, run.seed ^ 0xC4);

  // Every rung's objects live for the whole run, since the rungs run in
  // interleaved slices. On a deadline workload each lock-level attempt arms
  // a deadline on this wheel, as the frontends do on theirs.
  aml::TimerWheel wheel;
  aml::model::NativeModel model(kSlots);
  // Floors: a ticket lock and a std::mutex per stripe, indexed like the
  // table. They cannot abort, so they always block.
  std::vector<std::unique_ptr<TicketWorker::Lock>> tickets;
  for (std::uint32_t s = 0; s < kStripes; ++s) {
    tickets.push_back(std::make_unique<TicketWorker::Lock>(model, kSlots));
  }
  std::vector<aml::pal::CachePadded<std::mutex>> mutexes(kStripes);
  // core: the paper's long-lived lock per stripe, plain and observed (with a
  // steady clock, so the hand-off histogram reads in ns).
  auto plain_locks = abortable_locks<aml::AbortableLock>();
  auto observed_locks = abortable_locks<aml::ObservedAbortableLock>();
  std::vector<std::unique_ptr<aml::obs::Metrics>> sinks;
  for (auto& l : observed_locks) {
    sinks.push_back(std::make_unique<aml::obs::Metrics>(kSlots));
    sinks.back()->set_clock([] { return now_ns(); });
    l->set_metrics(sinks.back().get());
  }
  // table: LockTable by key.
  using LT = aml::table::LockTable<aml::model::NativeModel>;
  LT keyed(model, LT::Config{.max_threads = kSlots, .stripes = kStripes,
                             .tree_width = kTreeWidth});
  // ipc: a bare journaled stripe per stripe, no metrics sinks bound, in an
  // arena of its own; and a frontend without the segment's event ring.
  const std::string arena_name = seg_name();
  std::string error;
  auto arena = aml::ipc::ShmArena::create(arena_name, 16u << 20, 0, &error);
  aml::ipc::ShmArena::unlink(arena_name);
  if (arena == nullptr) {
    std::fprintf(stderr, "arena create failed: %s\n", error.c_str());
    std::exit(2);
  }
  aml::ipc::ShmSpace space(*arena, kSlots);
  using SL = aml::ipc::ShmStripeLockT<aml::obs::NullMetrics>;
  std::vector<std::unique_ptr<SL>> journaled;
  for (std::uint32_t s = 0; s < kStripes; ++s) {
    journaled.push_back(std::make_unique<SL>(
        space, SL::Config{.nprocs = kSlots, .w = kTreeWidth,
                          .find = aml::core::Find::kAdaptive}));
  }
  arena->seal();
  auto shm0 = make_shm(0);
  // Traced replays: the workload's own calls with spans around each, on the
  // observed table flavor and on the shm frontend.
  ObservedNamedLockTable otable(table_config());
  std::vector<SpanBuffer> tbuf(spec.threads), sbuf(spec.threads);
  for (auto* bufs : {&tbuf, &sbuf}) {
    for (SpanBuffer& b : *bufs) {
      b.cap = kFileSpansPerThread;
      b.spans.reserve(b.cap);
      b.samples.reserve(kLatencyCap);
    }
  }

  PhaseResult ticket, mutex, core, observed, lock_table, session, timed,
      stripe, shm_session_r, shm_ring0, shm_timed, traced, straced;
  CrashResult cr;
  auto rung = [&](const char* name, Discipline dd, PhaseResult& acc,
                  auto make) {
    return Slice{0.0, false, [&run, &streams, &acc, name, dd, budget,
                              make](const TrialPlan& p) {
                   run.note_slice(name,
                                  run_phase(acc, dd, budget, streams, p, make));
                 }};
  };
  std::vector<Slice> slices = {
      rung("ref.ticket", Discipline::kBlock, ticket,
           [&](std::uint32_t tid) { return TicketWorker{&tickets, tid}; }),
      rung("ref.std_mutex", Discipline::kBlock, mutex,
           [&](std::uint32_t) { return MutexWorker{&mutexes}; }),
      rung("core.passage", d, core,
           [&](std::uint32_t tid) {
             return AbortableWorker<aml::AbortableLock>{&plain_locks, tid,
                                                        {&wheel}};
           }),
      rung("core.observed", d, observed,
           [&](std::uint32_t tid) {
             return AbortableWorker<aml::ObservedAbortableLock>{
                 &observed_locks, tid, {&wheel}};
           }),
      rung("table.lock_table", d, lock_table,
           [&](std::uint32_t tid) {
             return KeyedWorker<LT>{&keyed, tid, {&wheel}};
           }),
      {0.0, false,
       [&](const TrialPlan& p) {
         table_phase(run, *f.table, session, "table.session",
                     Discipline::kBlock, budget, streams, p);
       }},
      {0.0, false,
       [&](const TrialPlan& p) {
         table_phase(run, *f.table, timed, "table.timed",
                     Discipline::kDeadline, budget, streams, p);
       }},
      rung("ipc.stripe", d, stripe,
           [&](std::uint32_t tid) {
             return RawStripeWorker<SL>{&journaled, tid, {&wheel}};
           }),
      {0.0, false,
       [&](const TrialPlan& p) {
         shm_phase(run, *f.shm, shm_session_r, "ipc.session",
                   Discipline::kBlock, budget, streams, p);
       }},
      {0.0, false,
       [&](const TrialPlan& p) {
         shm_phase(run, *shm0, shm_ring0, "ipc.session_ring0",
                   Discipline::kBlock, budget, streams, p);
       }},
      {0.0, false,
       [&](const TrialPlan& p) {
         shm_phase(run, *f.shm, shm_timed, "ipc.timed", Discipline::kDeadline,
                   budget, streams, p);
       }},
      {0.0, false,
       [&](const TrialPlan& p) {
         table_phase(run, otable, traced, "table.traced", d, budget, streams,
                     p, &tbuf);
       }},
      {0.0, false,
       [&](const TrialPlan& p) {
         shm_phase(run, *f.shm, straced, "shm.traced", d, budget, streams, p,
                   &sbuf);
       }},
      {0.0, false,
       [&](const TrialPlan& p) {
         crash_phase(run, *f.shm, cr, crash_stream[0], p);
       }},
  };
  // Timeouts and abort overshoot: from the timed rungs on deadline-storm,
  // else from the deadline-storm stream as a probe. Both move with the
  // host's scheduling of the TimerWheel's CPU too much for an end-to-end
  // bound.
  const auto pstreams = make_streams({Discipline::kDeadline, 3, kZipfNarrow},
                                     run.seed ^ 0xD1);
  PhaseResult tp, sp;
  if (w.deadline_probe) {
    slices.push_back({0.0, false, [&](const TrialPlan& p) {
                        table_phase(run, *f.table, tp, "table.deadline_probe",
                                    Discipline::kDeadline, kDeadlineBudget,
                                    pstreams, p);
                      }});
    slices.push_back({0.0, false, [&](const TrialPlan& p) {
                        shm_phase(run, *f.shm, sp, "shm.deadline_probe",
                                  Discipline::kDeadline, kDeadlineBudget,
                                  pstreams, p);
                      }});
  }
  for (Slice& s : slices) s.share = 1.0 / static_cast<double>(slices.size());
  interleave(slices, run.seconds, kTraceRounds);

  aml::obs::Counters ctr;
  for (const auto& s : sinks) ctr += s->totals();
  const std::uint64_t handoff_p50 = merged_hist_p50(sinks);
  const StripeTotals st = stripe_totals(otable);
  const std::uint64_t sweep_hist_p50 = f.shm->shm_metrics().sweep_latency().p50;

  // Segment lifecycle.
  std::vector<double> create_ms, attach_ms;
  for (int rep = 0; rep < kSegmentReps; ++rep) {
    const std::string name = seg_name();
    std::string error;
    const auto t0 = Clock::now();
    auto c = ShmNamedLockTable::create(name, shm_config(1024), &error);
    const auto t1 = Clock::now();
    auto a = c != nullptr
                 ? ShmNamedLockTable::attach(name, shm_config(1024), &error)
                 : nullptr;
    const auto t2 = Clock::now();
    ShmNamedLockTable::unlink(name);
    if (c == nullptr || a == nullptr) {
      run.fail(1, "segment create/attach failed: " + error);
      continue;
    }
    using Ms = std::chrono::duration<double, std::milli>;
    create_ms.push_back(Ms(t1 - t0).count());
    attach_ms.push_back(Ms(t2 - t1).count());
  }

  // Counting model at the workload's N and nominal abort rate.
  const std::uint32_t abort_ppm = deadline ? 15'000 : 0;
  bool rmr_mutex_ok = true;
  const Ratio ll =
      longlived_rmr(spec.threads, abort_ppm, run.seed, &rmr_mutex_ok);
  const Ratio os =
      oneshot_rmr(spec.threads, abort_ppm, run.seed, &rmr_mutex_ok);
  if (!rmr_mutex_ok) run.fail(1, "counting-model run broke mutual exclusion");

  // --- assemble ---------------------------------------------------------------
  const double core_ns = rung_ns(core);
  const double session_ns = rung_ns(deadline ? timed : session);
  const double shm_session_ns = rung_ns(deadline ? shm_timed : shm_session_r);
  const std::vector<Rung> ladder = {
      {"ref.ticket", rung_ns(ticket), ""},
      {"core.passage", core_ns, "ref.ticket"},
      {"table.lock_table", rung_ns(lock_table), "core.passage"},
      {"table.session", session_ns, "table.lock_table"},
      {"ipc.stripe", rung_ns(stripe), "core.passage"},
      {"ipc.session", shm_session_ns, "ipc.stripe"},
  };
  const auto self = self_times(ladder);
  const double acq = static_cast<double>(ctr.acquisitions);
  std::vector<std::uint64_t> acq_spans;
  for (const SpanBuffer& b : tbuf) {
    acq_spans.insert(acq_spans.end(), b.samples.begin(), b.samples.end());
  }
  const auto w50 = percentile(acq_spans, 0.50);
  const auto w99 = percentile(acq_spans, 0.99);
  if (!w50 || !w99) run.fail(0, "table.traced: too few acquire spans");
  const double untraced_ops =
      round_metric("", "", (deadline ? timed : session).rounds, &Round::ops_s,
                   false).value;
  const double traced_ops =
      round_metric("", "", traced.rounds, &Round::ops_s, false).value;

  run.add(plain("ref.clock_read_ns", "ns", clock_read_ns()),
          "every latency percentile (one read per sample)");
  run.add(plain("ref.ticket_ns", "ns", rung_ns(ticket)), "reference floor");
  run.add(plain("ref.std_mutex_ns", "ns", rung_ns(mutex)), "reference floor");
  run.add(plain("core.passage_ns", "ns", core_ns), "table_p50_ns on solo");
  run.add(plain("core.self_ns", "ns", self.at("core.passage")),
          "table_p50_ns on solo");
  run.add(ratio("core.switches_per_passage", "count/passage",
                {static_cast<double>(ctr.instance_switches), acq}),
          "table_p50_ns on solo");
  run.add(ratio("core.spin_iters_per_passage", "count/passage",
                {static_cast<double>(ctr.spin_iterations), acq}),
          "table_ops_s and table_p99_ns on zipf-contended");
  run.add(plain("core.handoff_p50_ns", "ns", static_cast<double>(handoff_p50)),
          "table_ops_s and table_p99_ns on zipf-contended");
  run.add(ratio("core.findnext_per_passage", "count/passage",
                {static_cast<double>(ctr.findnext_ascents), acq}),
          "table_ops_s on deadline-storm");
  run.add(ratio("core.recycles_per_passage", "count/passage",
                {static_cast<double>(ctr.spin_node_recycles), acq}),
          "table_ops_s on deadline-storm");
  run.add(ratio("core.rmr_per_passage", "count/passage", ll),
          "table_p50_ns on solo");
  run.add(ratio("oneshot.rmr_per_passage", "count/passage", os),
          "table_p50_ns on solo");
  run.add(plain("table.lock_table_ns", "ns", rung_ns(lock_table)),
          "table_p50_ns on solo");
  run.add(plain("table.lock_table_self_ns", "ns", self.at("table.lock_table")),
          "table_p50_ns on solo");
  run.add(plain("table.session_ns", "ns", session_ns), "table_p50_ns on solo");
  run.add(plain("table.session_self_ns", "ns", self.at("table.session")),
          "table_p50_ns on solo");
  run.add(plain("table.timer_ns", "ns", rung_ns(timed) - rung_ns(session)),
          "table_ops_s and table_p50_ns on deadline-storm");
  run.add(sampled("table.acquire_wait_p50_ns", "ns",
                  static_cast<double>(w50.value_or(0)) - session_ns,
                  acq_spans.size()),
          "table_p99_ns on zipf-contended");
  run.add(sampled("table.acquire_wait_p99_ns", "ns",
                  static_cast<double>(w99.value_or(0)) - session_ns,
                  acq_spans.size()),
          "table_p99_ns on zipf-contended");
  run.add(ratio("table.abort_ratio", "ratio",
                {static_cast<double>(st.aborts),
                 static_cast<double>(st.acquisitions + st.aborts)}),
          "equals its own callers' timeout share (checked every slice)");
  run.add(plain("table.max_inflight", "count",
                static_cast<double>(otable.peak_inflight())),
          "load shape on zipf-contended");
  run.add(ratio("table.hot_stripe_share", "ratio",
                {static_cast<double>(st.max_stripe),
                 static_cast<double>(st.acquisitions)}),
          "load shape on zipf-contended");
  run.add(plain("ipc.stripe_ns", "ns", rung_ns(stripe)), "shm_p50_ns on solo");
  run.add(plain("ipc.stripe_self_ns", "ns", self.at("ipc.stripe")),
          "shm_p50_ns on solo");
  run.add(plain("ipc.session_ns", "ns", shm_session_ns), "shm_p50_ns on solo");
  run.add(plain("ipc.session_self_ns", "ns", self.at("ipc.session")),
          "shm_p50_ns on solo");
  run.add(plain("ipc.ring_ns", "ns",
                rung_ns(shm_session_r) - rung_ns(shm_ring0)),
          "shm_ops_s on zipf-contended");
  run.add(plain("ipc.timer_ns", "ns",
                rung_ns(shm_timed) - rung_ns(shm_session_r)),
          "shm_ops_s on deadline-storm");
  const PhaseResult& tdl = w.deadline_probe ? tp : timed;
  const PhaseResult& sdl = w.deadline_probe ? sp : shm_timed;
  run.add(ratio("table_timeout_ratio", "ratio", timeout_ratio(tdl.rounds)),
          "table_ops_s on deadline-storm");
  run.add(ratio("shm_timeout_ratio", "ratio", timeout_ratio(sdl.rounds)),
          "shm_ops_s on deadline-storm");
  run.add(overshoot_p99(run, tdl, sdl),
          "bounded abort as callers see it; its floor is timerslack_ns");
  run.add(plain("ipc.create_ms", "ms", median(create_ms)), "setup_s");
  run.add(plain("ipc.attach_ms", "ms", median(attach_ms)), "setup_s");
  run.add(round_percentile(run, "ipc.sweep_p50_ns", "ns", cr.rounds,
                           &CrashRound::sweep_p50, &CrashRound::samples),
          "recovery_p50_us on holder-crash");
  run.add(round_percentile(run, "ipc.sweep_p99_ns", "ns", cr.rounds,
                           &CrashRound::sweep_p99, &CrashRound::samples),
          "recovery_p99_us on holder-crash");
  run.add(round_percentile(run, "ipc.reacquire_p50_ns", "ns", cr.rounds,
                           &CrashRound::reacquire_p50, &CrashRound::samples),
          "recovery_p50_us on holder-crash");
  run.add(plain("ipc.sweep_hist_p50_ns", "ns",
                static_cast<double>(sweep_hist_p50)),
          "recovery_p50_us on holder-crash (segment histogram cross-check)");
  run.add(plain("ipc.forced_exits", "count",
                static_cast<double>(cr.forced_exits)),
          "equals the crashes (checked)");
  run.add(plain("ipc.zombie_pids", "count",
                static_cast<double>(cr.zombie_pids)),
          "equals 0 (checked)");
  run.add(plain("obs.metrics_ns", "ns", rung_ns(observed) - core_ns),
          "table_ops_s if metrics were left on");
  run.add(ratio("obs.trace_overhead_ratio", "ratio",
                {traced_ops, untraced_ops}),
          "the traced run only");
  (void)straced;

  // Span file: every recorded per-call span plus one span per phase.
  std::ofstream out(run.out + "/" + run.workload + "-seed" +
                    std::to_string(run.seed) + ".trace.json");
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& name, const char* cat, std::uint64_t t0,
                  std::uint64_t t1, std::uint32_t tid) {
    out << (first ? "" : ",") << "\n{\"name\":" << json_string(name)
        << ",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << json_number(static_cast<double>(t0) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(t1 - t0) / 1e3)
        << "}";
    first = false;
  };
  for (const Run::PhaseSpan& p : run.phase_spans) {
    emit(p.name, "phase", p.t0, p.t1, 0);
  }
  for (const auto* bufs : {&tbuf, &sbuf}) {
    const char* cat = bufs == &tbuf ? "table" : "shm";
    for (const SpanBuffer& b : *bufs) {
      for (const Span& s : b.spans) emit(s.name, cat, s.t0, s.t1, s.tid + 1);
    }
  }
  out << "\n]}\n";
}

// --- host facts and output ---------------------------------------------------

std::string read_first_line(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (prefix == nullptr) return line;
    if (line.rfind(prefix, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_json(bool pinned) {
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"pinned\": " + (pinned ? "true" : "false") +
         ", \"cpu\": " +
         json_string(read_first_line("/proc/cpuinfo", "model name")) +
         ", \"timerslack_ns\": " +
         json_string(read_first_line("/proc/self/timerslack_ns", nullptr)) +
         ", \"build_type\": " + json_string(LEDGER_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(LEDGER_CXX_FLAGS) +
         ", \"compiler\": " + json_string(__VERSION__) + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: ledger_bench --workload <solo|zipf-contended|"
               "deadline-storm|holder-crash> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Large buffers (the per-slice latency samples) always come from mmap and
  // go back on free, so peak RSS does not depend on how the allocator's
  // adaptive threshold happened to move.
  ::mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") run.workload = v;
    else if (k == "--seed") run.seed = std::stoull(v);
    else if (k == "--seconds") run.seconds = std::stod(v);
    else if (k == "--trace") run.trace = v == "1";
    else if (k == "--out") run.out = v;
    else return usage();
  }
  const Workload* w = find_workload(run.workload);
  if (w == nullptr || !(run.seconds > 0)) return usage();

  // The coordinating thread, and the TimerWheel threads it starts, take the
  // last CPU (see worker_slot).
  const bool pinned = pin_to(allowed_cpus().size() - 1);

  // Set-up, several times; the last set stays live for the run.
  std::vector<double> setups;
  Frontends f;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double s = 0;
    f = Frontends{};
    f = set_up(&s);
    setups.push_back(s);
  }

  if (run.trace) {
    per_layer(run, *w, f);
  } else {
    end_to_end(run, *w, f, setups);
  }
  for (const auto& name : missing_bases(run.metrics)) {
    run.fail(0, "ratio metric without its base: " + name);
  }

  const bool correct = run.errors.empty();
  const std::string host = host_json(pinned);
  std::ostringstream report;
  report << "{\"workload\": " << json_string(run.workload)
         << ", \"seed\": " << run.seed << ", \"seconds\": "
         << json_number(run.seconds) << ", \"trace\": " << (run.trace ? 1 : 0)
         << ", \"host\": " << host << ", \"correct\": "
         << (correct ? "true" : "false") << ", \"attempted\": "
         << run.attempted << ", \"failed\": " << run.failed
         << ", \"metrics\": {";
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(run.attempted, 1)
         << ", \"failed\": " << run.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    const char* sep = i == 0 ? "" : ", ";
    report << sep << json_string(m.name) << ": " << full_json(m);
    result << sep << json_string(m.name) << ": " << value_json(m);
    std::printf("# %-28s %14.6g %-13s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.base) std::printf("  (%.0f / %.0f)", m.base->num, m.base->den);
    if (m.samples != 0) {
      std::printf("  (%llu samples)",
                  static_cast<unsigned long long>(m.samples));
    }
    if (const auto it = run.moves.find(m.name); it != run.moves.end()) {
      std::printf("  moves: %s", it->second.c_str());
    }
    std::printf("\n");
  }
  report << "}, \"moves\": {";
  bool first = true;
  for (const auto& [name, what] : run.moves) {
    report << (first ? "" : ", ") << json_string(name) << ": "
           << json_string(what);
    first = false;
  }
  report << "}, \"errors\": [";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    report << (i == 0 ? "" : ", ") << json_string(run.errors[i]);
  }
  report << "]}\n";
  result << "}}";
  std::ofstream(run.out + "/" + run.workload + "-seed" +
                std::to_string(run.seed) + "-trace" +
                (run.trace ? "1" : "0") + ".json")
      << report.str();
  std::printf("# host %s\n", host.c_str());
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}
