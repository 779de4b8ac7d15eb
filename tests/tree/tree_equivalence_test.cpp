// Lemma 1 (observable consequences): in quiescent states AdaptiveFindNext
// and FindNext return identical results for every caller slot, across a
// large randomized (N, W, removal-set) grid; and the adaptive ascent's RMR
// cost is bounded by the number of removers (Claim 21) while the plain
// ascent pays the full height (the Figure 4 contrast).
#include "aml/core/tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "aml/model/counting_cc.hpp"
#include "aml/pal/rng.hpp"

namespace aml::core {
namespace {

using model::CountingCcModel;
using TreeCc = Tree<CountingCcModel>;

struct Grid {
  std::uint32_t n;
  std::uint32_t w;
};

class TreeEquivalence : public ::testing::TestWithParam<Grid> {};

TEST_P(TreeEquivalence, AdaptiveMatchesPlainOnQuiescentStates) {
  const auto [n, w] = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CountingCcModel m(2);
    TreeCc tree(m, n, w);
    pal::Xoshiro256 rng(seed * 31 + n);
    for (std::uint32_t q = 0; q < n; ++q) {
      if (rng.chance_ppm(static_cast<std::uint64_t>(rng.below(900000)))) {
        tree.remove(0, q);
      }
    }
    for (std::uint32_t p = 0; p < n; ++p) {
      const FindResult plain = tree.find_next(0, p);
      const FindResult adaptive = tree.adaptive_find_next(1, p);
      ASSERT_EQ(static_cast<int>(plain.kind),
                static_cast<int>(adaptive.kind))
          << "n=" << n << " w=" << w << " p=" << p << " seed=" << seed;
      if (plain.is_found()) {
        ASSERT_EQ(plain.slot, adaptive.slot) << "p=" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, TreeEquivalence,
    ::testing::Values(Grid{2, 2}, Grid{4, 2}, Grid{8, 2}, Grid{16, 2},
                      Grid{32, 2}, Grid{9, 3}, Grid{27, 3}, Grid{30, 3},
                      Grid{16, 4}, Grid{64, 4}, Grid{70, 4}, Grid{64, 8},
                      Grid{512, 8}, Grid{100, 10}, Grid{256, 16},
                      Grid{300, 17}, Grid{128, 64}, Grid{4096, 64}),
    [](const auto& info) {
      std::string name = "N";
      name += std::to_string(info.param.n);
      name += "_W";
      name += std::to_string(info.param.w);
      return name;
    });

// Figure 4's payoff: with NO aborts, AdaptiveFindNext from the rightmost
// leaf of a deep subtree costs O(1) reads while FindNext pays the full
// ascent+descent through the lowest common ancestor.
TEST(TreeAdaptivity, SidestepBeatsFullAscentWithNoAborts) {
  // W=2, N=64 (height 6). p = 31 is the rightmost leaf of a height-5
  // subtree; leaf 32 is alive immediately to its right.
  CountingCcModel m(2);
  TreeCc tree(m, 64, 2);

  const std::uint64_t plain0 = m.counters(0).rmrs;
  const FindResult plain = tree.find_next(0, 31);
  const std::uint64_t plain_cost = m.counters(0).rmrs - plain0;

  const std::uint64_t ad0 = m.counters(1).rmrs;
  const FindResult adaptive = tree.adaptive_find_next(1, 31);
  const std::uint64_t adaptive_cost = m.counters(1).rmrs - ad0;

  ASSERT_TRUE(plain.is_found());
  ASSERT_TRUE(adaptive.is_found());
  EXPECT_EQ(plain.slot, 32u);
  EXPECT_EQ(adaptive.slot, 32u);
  EXPECT_EQ(adaptive_cost, 1u);         // one sidestep read
  EXPECT_GE(plain_cost, 11u);           // 6 up + 5 down
}

// Claim 21 quantitative shape: the adaptive ascent from slot p performs at
// most 2 + log_W(R_p) iterations where R_p counts removers >= p.
TEST(TreeAdaptivity, AscentBoundedByRemoverCount) {
  const std::uint32_t w = 4;
  const std::uint32_t n = 1024;  // height 5
  for (std::uint32_t removers : {3u, 15u, 63u, 255u}) {
    CountingCcModel m(2);
    TreeCc tree(m, n, w);
    // Remove slots 1..removers (slot 0 is the caller).
    for (std::uint32_t q = 1; q <= removers; ++q) tree.remove(0, q);
    m.reset_counters();
    const FindResult r = tree.adaptive_find_next(1, 0);
    ASSERT_TRUE(r.is_found());
    EXPECT_EQ(r.slot, removers + 1);
    const double bound =
        2.0 * (2.0 + std::log(static_cast<double>(removers)) /
                         std::log(static_cast<double>(w))) +
        2.0;
    EXPECT_LE(static_cast<double>(m.counters(1).rmrs), bound)
        << "removers=" << removers;
  }
}

// The adaptive walk must include the sidestepped cousin's subtree when
// resuming the ascent (the offsetAtParent - 1 subtlety of Algorithm 4.3):
// constructed so that missing it would return a wrong slot.
TEST(TreeAdaptivity, SidestepResumeCoversCousinSubtree) {
  // W=2, N=8, height 3. Caller p=1 (offset 1 -> sidesteps to node(1,1),
  // covering leaves {2,3}). Remove 2 and 3 (cousin EMPTY), keep 4 alive.
  CountingCcModel m(1);
  TreeCc tree(m, 8, 2);
  tree.remove(0, 2);
  tree.remove(0, 3);
  const FindResult r = tree.adaptive_find_next(0, 1);
  ASSERT_TRUE(r.is_found());
  EXPECT_EQ(r.slot, 4u);
  // Plain agrees.
  const FindResult plain = tree.find_next(0, 1);
  ASSERT_TRUE(plain.is_found());
  EXPECT_EQ(plain.slot, 4u);
}

// Rightmost-subtree callers: both variants must return BOTTOM, including
// when the sidestep would walk off the conceptual tree edge.
TEST(TreeAdaptivity, RightEdgeReturnsBottom) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes{
      {8, 2}, {27, 3}, {64, 8}, {100, 7}};
  for (auto [n, w] : shapes) {
    CountingCcModel m(1);
    Tree<CountingCcModel> tree(m, n, w);
    EXPECT_TRUE(tree.find_next(0, n - 1).is_bottom());
    EXPECT_TRUE(tree.adaptive_find_next(0, n - 1).is_bottom());
  }
}

}  // namespace
}  // namespace aml::core
