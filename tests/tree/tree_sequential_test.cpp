// Tree semantics in quiescent states (all Remove() calls completed): both
// FindNext variants must return exactly the first non-removed slot to the
// right, BOTTOM when none exists, and never TOP.
#include "aml/core/tree.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "aml/model/counting_cc.hpp"
#include "aml/pal/rng.hpp"

namespace aml::core {
namespace {

using model::CountingCcModel;

using TreeCc = Tree<CountingCcModel>;

std::optional<std::uint32_t> ref_next(const std::vector<bool>& removed,
                                      std::uint32_t p) {
  for (std::uint32_t q = p + 1; q < removed.size(); ++q) {
    if (!removed[q]) return q;
  }
  return std::nullopt;
}

void check_all(TreeCc& tree, const std::vector<bool>& removed) {
  const auto n = static_cast<std::uint32_t>(removed.size());
  for (std::uint32_t p = 0; p < n; ++p) {
    const auto expected = ref_next(removed, p);
    for (bool adaptive : {false, true}) {
      const FindResult r = adaptive ? tree.adaptive_find_next(0, p)
                                    : tree.find_next(0, p);
      ASSERT_FALSE(r.is_top()) << "TOP in quiescent state";
      if (expected.has_value()) {
        ASSERT_TRUE(r.is_found())
            << "p=" << p << " adaptive=" << adaptive;
        ASSERT_EQ(r.slot, *expected)
            << "p=" << p << " adaptive=" << adaptive;
      } else {
        ASSERT_TRUE(r.is_bottom()) << "p=" << p;
      }
    }
  }
}

struct Shape {
  std::uint32_t n;
  std::uint32_t w;
};

class TreeQuiescent : public ::testing::TestWithParam<Shape> {};

TEST_P(TreeQuiescent, FreshTreeFindsImmediateSuccessor) {
  const auto [n, w] = GetParam();
  CountingCcModel m(1);
  TreeCc tree(m, n, w);
  check_all(tree, std::vector<bool>(n, false));
}

TEST_P(TreeQuiescent, SingleRemovalSkipsSlot) {
  const auto [n, w] = GetParam();
  if (n < 3) return;
  CountingCcModel m(1);
  TreeCc tree(m, n, w);
  std::vector<bool> removed(n, false);
  const std::uint32_t victim = n / 2;
  tree.remove(0, victim);
  removed[victim] = true;
  check_all(tree, removed);
}

TEST_P(TreeQuiescent, PrefixAndSuffixRemovals) {
  const auto [n, w] = GetParam();
  if (n < 4) return;
  CountingCcModel m(1);
  TreeCc tree(m, n, w);
  std::vector<bool> removed(n, false);
  // Remove a whole suffix: every FindNext from inside it must be BOTTOM.
  for (std::uint32_t q = n - n / 3; q < n; ++q) {
    tree.remove(0, q);
    removed[q] = true;
  }
  // And a run in the middle.
  for (std::uint32_t q = 1; q < 1 + n / 4; ++q) {
    tree.remove(0, q);
    removed[q] = true;
  }
  check_all(tree, removed);
}

TEST_P(TreeQuiescent, RandomRemovalSets) {
  const auto [n, w] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CountingCcModel m(1);
    TreeCc tree(m, n, w);
    std::vector<bool> removed(n, false);
    pal::Xoshiro256 rng(seed * 1000 + n * 7 + w);
    for (std::uint32_t q = 0; q < n; ++q) {
      if (rng.chance_ppm(400000)) {  // ~40% removed
        tree.remove(0, q);
        removed[q] = true;
      }
    }
    check_all(tree, removed);
  }
}

TEST_P(TreeQuiescent, RemoveAllYieldsBottomEverywhere) {
  const auto [n, w] = GetParam();
  CountingCcModel m(1);
  TreeCc tree(m, n, w);
  for (std::uint32_t q = 0; q < n; ++q) tree.remove(0, q);
  check_all(tree, std::vector<bool>(n, true));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeQuiescent,
    ::testing::Values(Shape{1, 2}, Shape{2, 2}, Shape{3, 2}, Shape{4, 2},
                      Shape{7, 2}, Shape{8, 2}, Shape{9, 2}, Shape{16, 2},
                      Shape{5, 3}, Shape{27, 3}, Shape{28, 3}, Shape{4, 4},
                      Shape{17, 4}, Shape{64, 4}, Shape{65, 4}, Shape{8, 8},
                      Shape{64, 8}, Shape{100, 8}, Shape{33, 16},
                      Shape{257, 16}, Shape{63, 64}, Shape{64, 64},
                      Shape{65, 64}, Shape{300, 64}),
    [](const auto& info) {
      std::string name = "N";
      name += std::to_string(info.param.n);
      name += "_W";
      name += std::to_string(info.param.w);
      return name;
    });

TEST(TreeRemove, AscentDepthMatchesSubtreeCompletion) {
  // W=2, N=8 (height 3). Removing 1 stops at level 1 (leaf 0 alive);
  // removing leaves 0 then 1 completes the level-1 node, ascending.
  CountingCcModel m(1);
  TreeCc tree(m, 8, 2);
  EXPECT_EQ(tree.remove(0, 1), 1u);  // node(1,0) not yet empty
  EXPECT_EQ(tree.remove(0, 0), 2u);  // completes node(1,0), sets level-2 bit
  EXPECT_EQ(tree.remove(0, 3), 1u);
  EXPECT_EQ(tree.remove(0, 2), 3u);  // completes nodes at levels 1 and 2
}

TEST(TreeRemove, ChargesOLogWRRmrs) {
  // Claim 20 shape check: removing k consecutive slots costs O(k log) total
  // but each individual remove is at most height RMRs.
  CountingCcModel m(1);
  TreeCc tree(m, 64, 2);  // height 6
  for (std::uint32_t q = 0; q < 64; ++q) {
    const std::uint64_t before = m.counters(0).rmrs;
    tree.remove(0, q);
    EXPECT_LE(m.counters(0).rmrs - before, 6u);
  }
}

TEST(TreeIntrospection, NodeValuesReflectRemovals) {
  CountingCcModel m(1);
  TreeCc tree(m, 4, 2);
  EXPECT_EQ(tree.read_node(0, 1, 0), 0u);
  tree.remove(0, 0);
  EXPECT_EQ(tree.read_node(0, 1, 0), pal::offset_mask(2, 0));
  tree.remove(0, 1);
  EXPECT_EQ(tree.read_node(0, 1, 0), tree.empty_value());
  EXPECT_EQ(tree.read_node(0, 2, 0), pal::offset_mask(2, 0));
}

}  // namespace
}  // namespace aml::core
