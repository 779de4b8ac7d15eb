// Tests of the ledger's own arithmetic: the percentile rank and its tail
// rule, medians, self time as rung minus rung below, and ratios that carry
// their base.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace {

using namespace ledger;

std::vector<std::uint64_t> one_to(std::uint64_t n) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = n; i >= 1; --i) v.push_back(i);  // unsorted input
  return v;
}

TEST(Percentile, NearestRankIsCeilOfQTimesN) {
  EXPECT_EQ(nearest_rank(100, 0.50), 50u);
  EXPECT_EQ(nearest_rank(101, 0.50), 51u);
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(nearest_rank(999, 0.99), 990u);
  EXPECT_EQ(nearest_rank(1, 0.99), 1u);
  EXPECT_EQ(nearest_rank(10, 0.0), 1u);
}

TEST(Percentile, ValueIsTheRankthSmallest) {
  EXPECT_EQ(percentile(one_to(100), 0.50), std::optional<std::uint64_t>(50));
  EXPECT_EQ(percentile(one_to(1000), 0.99), std::optional<std::uint64_t>(990));
}

TEST(Percentile, RequiresTenSamplesBeyondTheRank) {
  // 1000 samples: rank 990 leaves exactly 10 above it.
  EXPECT_TRUE(percentile_defined(1000, 0.99));
  EXPECT_TRUE(percentile(one_to(1000), 0.99).has_value());
  // 999 samples: rank 990 leaves 9.
  EXPECT_FALSE(percentile_defined(999, 0.99));
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  // The median of 20 leaves 10; of 19, rank 10 leaves 9.
  EXPECT_TRUE(percentile(one_to(20), 0.50).has_value());
  EXPECT_FALSE(percentile(one_to(19), 0.50).has_value());
  EXPECT_FALSE(percentile(std::vector<std::uint64_t>{}, 0.50).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BetterValue, PicksTheSecondBestOfTenRounds) {
  const std::vector<double> v = {9, 2, 7, 4, 1, 8, 3, 6, 10, 5};
  EXPECT_DOUBLE_EQ(better_value(v, /*lower_is_better=*/true), 2.0);
  EXPECT_DOUBLE_EQ(better_value(v, /*lower_is_better=*/false), 9.0);
  EXPECT_EQ(better_index(v, true), 1u);
  EXPECT_EQ(better_index(v, false), 0u);
  // Six rounds: nearest rank ceil(1.2) = 2 as well.
  EXPECT_DOUBLE_EQ(better_value({6, 5, 4, 3, 2, 1}, true), 2.0);
  EXPECT_DOUBLE_EQ(better_value({}, true), 0.0);
}

TEST(BetterValue, HalfTheRoundsSlowedDoNotMoveIt) {
  const std::vector<double> v = {2.0, 2.5, 2.0, 2.5, 2.1, 2.5, 2.5, 2.0, 2.5,
                                 2.2};
  EXPECT_DOUBLE_EQ(better_value(v, true), 2.0);
}

TEST(SelfTime, IsRungMinusRungBelow) {
  const std::vector<Rung> ladder = {
      {"ref.ticket", 40.0, ""},
      {"core.passage", 200.0, "ref.ticket"},
      {"table.lock_table", 260.0, "core.passage"},
      {"table.session", 380.0, "table.lock_table"},
      {"ipc.stripe", 700.0, "core.passage"},
  };
  const auto self = self_times(ladder);
  EXPECT_DOUBLE_EQ(self.at("ref.ticket"), 40.0);
  EXPECT_DOUBLE_EQ(self.at("core.passage"), 160.0);
  EXPECT_DOUBLE_EQ(self.at("table.lock_table"), 60.0);
  EXPECT_DOUBLE_EQ(self.at("table.session"), 120.0);
  EXPECT_DOUBLE_EQ(self.at("ipc.stripe"), 500.0);
  // Self times down one branch add back up to the top rung.
  EXPECT_DOUBLE_EQ(self.at("ref.ticket") + self.at("core.passage") +
                       self.at("table.lock_table") + self.at("table.session"),
                   380.0);
}

TEST(SelfTime, RungOnAMissingRungHasNone) {
  const auto self = self_times({{"table.session", 380.0, "table.lock_table"}});
  EXPECT_EQ(self.count("table.session"), 0u);
}

TEST(Ratio, CarriesItsBase) {
  const Metric m = ratio("table.abort_ratio", "ratio", {15.0, 1000.0});
  ASSERT_TRUE(m.base.has_value());
  EXPECT_DOUBLE_EQ(m.value, 0.015);
  EXPECT_DOUBLE_EQ(m.base->num, 15.0);
  EXPECT_DOUBLE_EQ(m.base->den, 1000.0);
  const std::string j = full_json(m);
  EXPECT_NE(j.find("\"num\": 15"), std::string::npos) << j;
  EXPECT_NE(j.find("\"den\": 1000"), std::string::npos) << j;
}

TEST(Ratio, UndefinedBaseReadsZero) {
  EXPECT_FALSE((Ratio{3.0, 0.0}).defined());
  EXPECT_DOUBLE_EQ((Ratio{3.0, 0.0}).value(), 0.0);
}

TEST(Ratio, EveryQuotientUnitMustCarryABase) {
  const std::vector<Metric> ok = {
      ratio("a", "ratio", {1, 2}), ratio("b", "count/passage", {3, 4}),
      plain("c", "ns", 5.0), sampled("d", "ns", 6.0, 100)};
  EXPECT_TRUE(missing_bases(ok).empty());
  const std::vector<Metric> bad = {plain("a", "ratio", 0.5),
                                   plain("b", "count/passage", 0.75)};
  EXPECT_EQ(missing_bases(bad), (std::vector<std::string>{"a", "b"}));
}

TEST(Json, ResultFormKeepsOnlyValueAndUnit) {
  const Metric m = sampled("table_p99_ns", "ns", 1234.5, 4000);
  EXPECT_EQ(value_json(m), "{\"value\": 1234.5, \"unit\": \"ns\"}");
  EXPECT_NE(full_json(m).find("\"samples\": 4000"), std::string::npos);
}

}  // namespace
