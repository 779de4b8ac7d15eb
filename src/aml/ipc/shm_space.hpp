// ShmSpace: the shared-memory word space. Mirrors model::NativeModel's API
// exactly — cacheline-padded atomic<uint64_t> words, seq_cst operations,
// Backoff busy-waits — but allocates its words out of a ShmArena, so every
// core lock template (OneShotLock, LongLivedLock, VersionedSpace)
// instantiates over it unchanged and its words are visible to every process
// mapping the segment.
//
// Allocation follows the arena's deterministic-replay discipline: the
// creator's alloc() stores the initial values; an attacher issuing the same
// alloc() sequence gets pointers to the creator's live words and must not
// re-initialize them. Word* handles are process-local (they embed the local
// mapping base) but resolve to identical offsets in every process because
// construction replays identically.
#pragma once

#include <atomic>
#include <cstdint>

#include "aml/ipc/shm_arena.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/edges.hpp"

namespace aml::ipc {

class ShmSpace {
 public:
  /// One shared word, padded like NativeModel::Word so the per-slot spin
  /// words do not false-share across processes either.
  // AML_SHM_REGION_BEGIN
  struct alignas(pal::kCacheLine) Word {
    std::atomic<std::uint64_t> v;
  };
  // AML_SHM_REGION_END
  AML_SHM_PLACEABLE(Word);

  ShmSpace(ShmArena& arena, model::Pid nprocs)
      : arena_(arena), nprocs_(nprocs) {}

  ShmSpace(const ShmSpace&) = delete;
  ShmSpace& operator=(const ShmSpace&) = delete;

  model::Pid nprocs() const { return nprocs_; }

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

  /// DSM vocabulary shim (see NativeModel::alloc_owned): shm has no
  /// per-process locality either, so this forwards.
  Word* alloc_owned(model::Pid /*owner*/, std::size_t n,
                    std::uint64_t init = 0) {
    return alloc(n, init);
  }

  std::uint64_t read(model::Pid, Word& w) const {
    return w.v.load(std::memory_order_seq_cst);
  }

  void write(model::Pid, Word& w, std::uint64_t x) {
    w.v.store(x, std::memory_order_seq_cst);
  }

  std::uint64_t faa(model::Pid, Word& w, std::uint64_t delta) {
    return w.v.fetch_add(delta, std::memory_order_seq_cst);
  }

  bool cas(model::Pid, Word& w, std::uint64_t expected,
           std::uint64_t desired) {
    return w.v.compare_exchange_strong(expected, desired,
                                       std::memory_order_seq_cst);
  }

  std::uint64_t swap(model::Pid, Word& w, std::uint64_t x) {
    return w.v.exchange(x, std::memory_order_seq_cst);
  }

  // --- ordered vocabulary (edge carriers; see model/native.hpp) ----------
  // Acquire/release have the same inter-process semantics over a shared
  // mapping as intra-process, so the justified core relaxations apply to
  // shm words too. The recovery journaling (amlint R7) never routes through
  // these: phase words use the seq_cst base vocabulary.

  std::uint64_t read_acq(model::Pid, Word& w) const {
    return w.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
  }

  std::uint64_t read_rlx(model::Pid, Word& w) const {
    return w.v.load(std::memory_order_relaxed);  // AML_RELAXED(carrier; justification at call sites)
  }

  void write_rel(model::Pid, Word& w, std::uint64_t x) {
    w.v.store(x, std::memory_order_release);  // AML_V_EDGE(model.native.carrier)
  }

  void write_rlx(model::Pid, Word& w, std::uint64_t x) {
    w.v.store(x, std::memory_order_relaxed);  // AML_RELAXED(carrier; justification at call sites)
  }

  /// Busy-wait until pred(value) holds or the stop flag is raised. The spin
  /// load is the acquire side of the hand-off edge (see NativeModel::wait).
  template <typename Pred>
  model::WaitOutcome wait(model::Pid, Word& w, Pred&& pred,
                          const std::atomic<bool>* stop) const {
    pal::Backoff backoff;
    for (;;) {
      const std::uint64_t v =
          w.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
      if (pred(v)) return {v, false};
      if (stop != nullptr &&
          stop->load(std::memory_order_acquire)) {  // AML_X_EDGE(core.abort_signal)
        return {v, true};
      }
      backoff.pause();
    }
  }

  template <typename Pred1, typename Pred2>
  model::WaitOutcome2 wait_either(model::Pid, Word& w1, Pred1&& pred1,
                                  Word& w2, Pred2&& pred2,
                                  const std::atomic<bool>* stop) const {
    pal::Backoff backoff;
    for (;;) {
      const std::uint64_t v1 =
          w1.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
      if (pred1(v1)) return {v1, 0, false};
      const std::uint64_t v2 =
          w2.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
      if (pred2(v2)) return {v1, v2, false};
      if (stop != nullptr &&
          stop->load(std::memory_order_acquire)) {  // AML_X_EDGE(core.abort_signal)
        return {v1, v2, true};
      }
      backoff.pause();
    }
  }

  /// Pid-less probe for recovery code inspecting a dead process's words.
  std::uint64_t peek(const Word& w) const {
    return w.v.load(std::memory_order_seq_cst);
  }

  std::size_t words_allocated() const { return total_words_; }

  ShmArena& arena() const { return arena_; }

 private:
  ShmArena& arena_;
  model::Pid nprocs_;
  std::size_t total_words_ = 0;
};

}  // namespace aml::ipc
