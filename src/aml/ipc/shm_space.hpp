// ShmSpace: the shared-memory word space. It is model::NativeModel's word
// operations (model::NativeOps: cacheline-padded atomic<uint64_t> words and
// three-cell lines, the seq_cst and ordered vocabularies, Backoff
// busy-waits) over words and lines allocated out of a ShmArena, so every
// core lock template (OneShotLock, LongLivedLock, VersionedSpace)
// instantiates over it unchanged and its words are visible to every process
// mapping the segment. Since layout 7 a VersionedSpace record takes one
// arena line (alloc_line), as it does on the heap. Acquire/release have the
// same inter-process semantics over a shared mapping as intra-process, so
// the justified core relaxations apply to shm words too; the recovery
// journaling (amlint R7) never routes through the ordered vocabulary: phase
// words use the seq_cst base vocabulary.
//
// Allocation follows the arena's deterministic-replay discipline: the
// creator's alloc()/alloc_line() store the initial values; an attacher
// issuing the same allocation sequence gets pointers to the creator's live
// words and must not re-initialize them. Word* and Cell* handles are
// process-local (they embed the local mapping base) but resolve to
// identical offsets in every process because construction replays
// identically.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "aml/ipc/shm_arena.hpp"
#include "aml/model/native.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/edges.hpp"

namespace aml::ipc {

class ShmSpace : public model::NativeOps<true> {
 public:
  AML_SHM_PLACEABLE(Word);
  AML_SHM_PLACEABLE(Line);

  ShmSpace(ShmArena& arena, model::Pid nprocs)
      : NativeOps(nprocs), arena_(arena) {}

  /// Allocate `n` contiguous words initialized to `init`. Creator-only
  /// stores: the attacher replays the allocation for its cursor and handle
  /// but must not clobber live values.
  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    Word* w = arena_.alloc_array<Word>(n);
    if (arena_.creating()) {
      for (std::size_t i = 0; i < n; ++i) {
        // Attachers only see the segment after the arena's seal handshake
        // publishes it (ipc.arena_seal), which covers these stores.
        w[i].v.store(init, std::memory_order_relaxed);  // AML_RELAXED(pre-seal init; published by ipc.arena_seal)
      }
    }
    total_words_ += n;
    return w;
  }

  /// Allocate one arena line of kLineCells cells, cell i initialized to
  /// `init[i]` by the creator only (as alloc()). Counted as kLineCells words.
  Cell* alloc_line(const std::array<std::uint64_t, kLineCells>& init) {
    Line* line = arena_.alloc_array<Line>(1);
    if (arena_.creating()) {
      for (std::size_t i = 0; i < kLineCells; ++i) {
        line->cells[i].v.store(init[i], std::memory_order_relaxed);  // AML_RELAXED(pre-seal init; published by ipc.arena_seal)
      }
    }
    total_words_ += kLineCells;
    return line->cells;
  }

  /// Pid-less probe for recovery code inspecting a dead process's words.
  std::uint64_t peek(const Cell& w) const {
    return w.v.load(std::memory_order_seq_cst);
  }

  std::size_t words_allocated() const { return total_words_; }

  ShmArena& arena() const { return arena_; }

 private:
  ShmArena& arena_;
  std::size_t total_words_ = 0;
};

}  // namespace aml::ipc
