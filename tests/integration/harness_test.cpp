// Harness components: table rendering, summary stats, workload plans, and
// end-to-end experiment plumbing consistency.
#include <gtest/gtest.h>

#include <sstream>

#include "aml/harness/rmr_experiment.hpp"
#include "aml/harness/stats.hpp"
#include "aml/harness/table.hpp"
#include "aml/harness/workload.hpp"

namespace aml::harness {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table t("demo");
  t.headers({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "23456"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("23456"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

TEST(StatsTest, SummaryBasics) {
  const Summary s = summarize({5, 1, 3, 2, 4});
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.p50, 3u);
}

TEST(StatsTest, EmptySummary) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0u);
}

// Nearest-rank percentiles: rank = ceil(q*n), value = sorted[rank-1].
// The previous rounding formula (idx = q*(n-1)+0.5) put p50 of {10..100}
// at 60 instead of 50.
TEST(StatsTest, NearestRankPercentiles) {
  const Summary s = summarize({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  EXPECT_EQ(s.p50, 50u);
  EXPECT_EQ(s.p90, 90u);
  EXPECT_EQ(s.p99, 100u);
}

TEST(StatsTest, NearestRankSingleton) {
  const Summary s = summarize({7});
  EXPECT_EQ(s.p50, 7u);
  EXPECT_EQ(s.p90, 7u);
  EXPECT_EQ(s.p99, 7u);
}

TEST(StatsTest, NearestRankSmallN) {
  // n=4: p50 rank = ceil(0.5*4) = 2 -> second smallest; p90 and p99 both
  // land on rank 4 -> the max.
  const Summary s = summarize({4, 1, 3, 2});
  EXPECT_EQ(s.p50, 2u);
  EXPECT_EQ(s.p90, 4u);
  EXPECT_EQ(s.p99, 4u);
}

TEST(WorkloadTest, PlanBuilders) {
  EXPECT_EQ(plan_aborters(plan_none(8)), 0u);
  const auto first = plan_first_k(8, 3);
  EXPECT_EQ(plan_aborters(first), 3u);
  EXPECT_EQ(first[0].when, AbortWhen::kNever);
  EXPECT_EQ(first[3].when, AbortWhen::kOnIdle);
  EXPECT_EQ(first[4].when, AbortWhen::kNever);
  const auto allbut = plan_all_but(8, 5);
  EXPECT_EQ(plan_aborters(allbut), 7u);
  EXPECT_EQ(allbut[5].when, AbortWhen::kNever);
  const auto rand1 = plan_random_k(16, 7, 42);
  const auto rand2 = plan_random_k(16, 7, 42);
  EXPECT_EQ(plan_aborters(rand1), 7u);
  for (std::size_t i = 0; i < rand1.size(); ++i) {
    EXPECT_EQ(rand1[i].when, rand2[i].when) << "plan not deterministic";
  }
  EXPECT_EQ(rand1[0].when, AbortWhen::kNever);
}

TEST(ExperimentPlumbing, RecordsAndSummariesConsistent) {
  SinglePassOptions opts;
  opts.seed = 4;
  opts.plans = plan_first_k(16, 6, AbortWhen::kOnIdle);
  const RunResult r = oneshot_cc_run(16, 4, core::Find::kAdaptive, opts);
  EXPECT_EQ(r.records.size(), 16u);
  EXPECT_EQ(r.complete_summary().count, r.completed);
  EXPECT_EQ(r.aborted_summary().count, r.aborted);
  EXPECT_EQ(r.completed + r.aborted, 16u);
  // Slots are a permutation of 0..15 with ordered doorway.
  std::vector<bool> seen(16, false);
  for (const auto& rec : r.records) {
    EXPECT_FALSE(seen[rec.slot]);
    seen[rec.slot] = true;
    EXPECT_EQ(rec.slot, rec.pid);  // ordered doorway pins slot == pid
  }
}

TEST(ExperimentPlumbing, LongLivedAccounting) {
  LongLivedOptions opts;
  opts.n = 4;
  opts.w = 4;
  opts.rounds = 5;
  opts.abort_ppm = 300000;
  opts.seed = 8;
  const RunResult r = run_long_lived<core::VersionedSpace>(opts);
  EXPECT_EQ(r.records.size(), 20u);
  EXPECT_EQ(r.complete_summary().count, r.completed);
  EXPECT_EQ(r.aborted_summary().count, r.aborted);
}

}  // namespace
}  // namespace aml::harness
