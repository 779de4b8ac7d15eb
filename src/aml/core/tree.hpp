// The Tree data structure of Section 4: a W-ary tree over the queue slots
// that tracks which slots have been abandoned by aborting processes.
//
//  * Remove(p)            — Algorithm 4.2: ascend from leaf p setting the bit
//                           of p's subtree with F&A; keep ascending while the
//                           visited node became all-ones (EMPTY).
//  * FindNext(p)          — Algorithm 4.1: ascend until a zero bit exists to
//                           the right of p's path, then descend to the
//                           leftmost non-abandoned leaf. Returns that slot,
//                           BOTTOM (no candidate anywhere to the right), or
//                           TOP (crossed paths with an in-flight Remove: a
//                           node on the descent read as EMPTY).
//  * AdaptiveFindNext(p)  — Algorithm 4.3: like FindNext but when the current
//                           node is the rightmost child of its parent,
//                           "sidestep" to the right cousin instead of
//                           ascending, making the RMR cost O(log_W A) where A
//                           is the number of removers (Claim 21) instead of
//                           O(log_W N).
//
// The semantics are *not* linearizable (Section 3): TOP explicitly exposes
// concurrency between FindNext and Remove, and the one-shot lock's
// responsibility hand-off protocol is built around it.
//
// The template parameter Space is any memory model / word space providing
// read and faa (see aml/model/concepts.hpp). `self` is the executing process
// (for RMR accounting); `p` is a queue slot.
#pragma once

#include <cstdint>
#include <vector>

#include "aml/model/concepts.hpp"
#include "aml/pal/bits.hpp"
#include "aml/pal/config.hpp"
#include "aml/core/tree_geometry.hpp"

namespace aml::core {

using model::Pid;

/// Outcome of FindNext / AdaptiveFindNext.
struct FindResult {
  enum class Kind : std::uint8_t {
    kFound,   ///< `slot` is the first non-abandoned slot > p
    kTop,     ///< ⊤: crossed paths with a concurrent Remove
    kBottom,  ///< ⊥: every slot > p is abandoned; the lock is unusable
  };
  Kind kind = Kind::kBottom;
  std::uint32_t slot = 0;

  static FindResult found(std::uint32_t s) {
    return {Kind::kFound, s};
  }
  static FindResult top() { return {Kind::kTop, 0}; }
  static FindResult bottom() { return {Kind::kBottom, 0}; }

  bool is_found() const { return kind == Kind::kFound; }
  bool is_top() const { return kind == Kind::kTop; }
  bool is_bottom() const { return kind == Kind::kBottom; }
};

template <typename Space>
class Tree {
 public:
  using Word = typename Space::Word;

  /// Build the tree over `n_slots` slots with W = `w`. All storage is
  /// allocated from `space` up front (the structure is static).
  Tree(Space& space, std::uint32_t n_slots, std::uint32_t w)
      : space_(space), geo_(n_slots, w), empty_(pal::empty_word(w)) {
    levels_.resize(geo_.height() + 1);
    for (std::uint32_t lvl = 1; lvl <= geo_.height(); ++lvl) {
      const std::uint64_t width = geo_.stored_width(lvl);
      levels_[lvl].reserve(width);
      for (std::uint64_t idx = 0; idx < width; ++idx) {
        levels_[lvl].push_back(space_.alloc(1, geo_.initial_value(lvl, idx)));
      }
    }
  }

  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  const TreeGeometry& geometry() const { return geo_; }

  /// Algorithm 4.2. Marks slot p abandoned. Wait-free; O(log_W R) RMRs where
  /// R is the number of removers so far (Claim 20). Returns the number of
  /// levels ascended (introspection for tests/benches).
  std::uint32_t remove(Pid self, std::uint32_t p) {
    const std::uint32_t h = geo_.height();
    const std::uint32_t w = geo_.w();
    std::uint32_t levels = 0;
    for (std::uint32_t lvl = 1; lvl <= h; ++lvl) {
      const std::uint64_t j = pal::offset_mask(w, geo_.offset(p, lvl));
      Word* node = stored_node(lvl, geo_.node_index(p, lvl));
      AML_DASSERT(node != nullptr, "Remove must touch stored nodes only");
      const std::uint64_t snap = space_.faa(self, *node, j);
      AML_DASSERT((snap & j) == 0, "tree bit set twice (double remove?)");
      ++levels;
      if (snap + j != empty_) break;
    }
    return levels;
  }

  /// Algorithm 4.1 (non-adaptive). See FindResult for outcomes.
  FindResult find_next(Pid self, std::uint32_t p) {
    const std::uint32_t h = geo_.height();
    const std::uint32_t w = geo_.w();
    std::uint64_t snap = 0;
    std::uint64_t idx = 0;
    std::uint32_t lvl = 1;
    bool found = false;
    for (; lvl <= h; ++lvl) {
      idx = geo_.node_index(p, lvl);
      const int offset = static_cast<int>(geo_.offset(p, lvl));
      snap = read_stored(self, lvl, idx);
      if (pal::has_zero_to_the_right(snap, w, offset)) {
        found = true;
        break;
      }
    }
    if (!found) return FindResult::bottom();  // reached root: no candidate
    const int offset = static_cast<int>(geo_.offset(p, lvl));
    return descend(self, lvl, idx, snap, offset);
  }

  /// Algorithm 4.3 (adaptive ascent with sidestep). Equivalent to find_next
  /// per Lemma 1; O(log_W R_p) RMRs (Claim 21).
  FindResult adaptive_find_next(Pid self, std::uint32_t p) {
    const std::uint32_t h = geo_.height();
    const std::uint32_t w = geo_.w();
    std::uint64_t idx = geo_.node_index(p, 1);
    int offset = static_cast<int>(geo_.offset(p, 1));
    std::uint64_t snap = 0;
    std::uint32_t lvl = 1;
    bool found = false;
    for (std::uint32_t iter = 1; iter <= h; ++iter, ++lvl) {
      if (offset == static_cast<int>(w) - 1) {
        // Sidestep: this node is the rightmost child of its parent, so no
        // zero can appear to its right there; optimistically examine the
        // node to the right of the parent at the same level instead
        // (Algorithm 4.3, lines 45-47).
        idx = idx + 1;
        offset = -1;
      }
      snap = read_maybe_virtual(self, lvl, idx);
      if (pal::has_zero_to_the_right(snap, w, offset)) {
        found = true;
        break;
      }
      // Ascend. After a sidestep the parent search must include the cousin's
      // own subtree (offsetAtParent - 1): the Remove() that filled the
      // cousin might not have set the cousin's bit in the parent yet, and
      // the non-adaptive FindNext would have descended into the cousin and
      // returned TOP; mimic that (Algorithm 4.3, lines 51-54 and Section
      // 4.1's discussion).
      if (offset == -1) {
        offset = static_cast<int>(TreeGeometry::offset_at_parent(idx, w)) - 1;
      } else {
        offset = static_cast<int>(TreeGeometry::offset_at_parent(idx, w));
      }
      idx = idx / w;
    }
    if (!found) return FindResult::bottom();
    return descend(self, lvl, idx, snap, offset);
  }

  /// Test/bench introspection: raw value of node (lvl, idx), charged to
  /// `self`. Virtual (phantom) nodes read as EMPTY.
  std::uint64_t read_node(Pid self, std::uint32_t lvl, std::uint64_t idx) {
    return read_maybe_virtual(self, lvl, idx);
  }

  /// Oracle probe: raw value of node (lvl, idx) with no gating and no RMR
  /// accounting. Safe from the scheduler between grants (every process is
  /// suspended); virtual nodes read as EMPTY. Not part of the algorithm.
  std::uint64_t peek_node(std::uint32_t lvl, std::uint64_t idx) const {
    if (lvl < 1 || lvl >= levels_.size()) return empty_;
    const auto& level = levels_[lvl];
    if (idx >= level.size()) return empty_;
    return space_.peek(*level[idx]);
  }

  std::uint64_t empty_value() const { return empty_; }

  /// Test-only: overwrite node (lvl, idx) with an arbitrary value, bypassing
  /// the algorithm (oracle fire-tests manufacture illegal states with this).
  /// Only instantiable over spaces with poke() (the raw models).
  void debug_poke_node(std::uint32_t lvl, std::uint64_t idx,
                       std::uint64_t v) {
    Word* node = stored_node(lvl, idx);
    AML_ASSERT(node != nullptr, "debug_poke_node: virtual node");
    space_.poke(*node, v);
  }

 private:
  /// Shared descent of both algorithms (Algorithm 4.1 lines 26-36): from
  /// node (lvl, idx) whose snapshot `snap` has a zero to the right of
  /// `offset`, walk down to the leftmost non-abandoned leaf.
  FindResult descend(Pid self, std::uint32_t lvl, std::uint64_t idx,
                     std::uint64_t snap, int offset) {
    const std::uint32_t w = geo_.w();
    std::uint32_t index = pal::first_zero_to_the_right(snap, w, offset);
    std::uint64_t child = idx * w + index;
    for (std::uint32_t l = lvl - 1; l >= 1; --l) {
      const std::uint64_t s = read_stored(self, l, child);
      if (s == empty_) {
        // Crossed paths with a Remove() ascending this subtree: the zero bit
        // we followed has been filled underneath us.
        return FindResult::top();
      }
      index = pal::first_zero(s, w);
      child = child * w + index;
    }
    AML_DASSERT(child < geo_.n_slots(), "descended to a phantom leaf");
    return FindResult::found(static_cast<std::uint32_t>(child));
  }

  Word* stored_node(std::uint32_t lvl, std::uint64_t idx) {
    auto& level = levels_[lvl];
    return idx < level.size() ? level[idx] : nullptr;
  }

  /// Read a node that is always stored (ancestors of real leaves, or
  /// children reached by following zero bits).
  std::uint64_t read_stored(Pid self, std::uint32_t lvl, std::uint64_t idx) {
    Word* node = stored_node(lvl, idx);
    AML_DASSERT(node != nullptr, "expected a stored node");
    return space_.read(self, *node);
  }

  /// Read a node that may be virtual (beyond the stored width or beyond the
  /// conceptual tree edge): such nodes are entirely phantom and read as
  /// EMPTY with no memory operation. Only AdaptiveFindNext's sidestep can
  /// reach them.
  std::uint64_t read_maybe_virtual(Pid self, std::uint32_t lvl,
                                   std::uint64_t idx) {
    if (idx >= geo_.conceptual_width(lvl)) return empty_;
    Word* node = stored_node(lvl, idx);
    if (node == nullptr) return empty_;
    return space_.read(self, *node);
  }

  Space& space_;
  TreeGeometry geo_;
  std::uint64_t empty_;
  std::vector<std::vector<Word*>> levels_;  // [level][index] -> word
};

}  // namespace aml::core
