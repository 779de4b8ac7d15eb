// NativeModel: the production memory model. Words are cacheline-padded
// std::atomic<uint64_t>; operations map 1:1 to hardware atomics.
//
// The paper states its algorithms for a sequentially consistent atomic-
// register model, so the base vocabulary (read/write/faa/cas/swap) is
// seq_cst. On top of it the model exposes an *ordered* vocabulary —
// read_acq / read_rlx / write_rel / write_rlx and an acquire-spinning
// wait() — that the algorithms use only at call sites whose weaker order is
// justified by a named happens-before edge (see aml/pal/edges.hpp, the
// tools/edges.toml manifest, and docs/MEMORY_MODEL.md; amlint R8/R9 enforce
// the discipline). The ordered primitives here are the *carriers*: the
// concrete edge is named where they are called, and the carrier pair below
// is itself the `model.native.carrier` manifest entry, litmus-tested as a
// raw message-passing idiom in tests/litmus.
//
// BasicNativeModel<false> (alias NativeModelSeqCst) compiles every carrier
// back to seq_cst — the pre-relaxation baseline. bench_native_throughput
// runs both and gates the relaxed path against the seq_cst twin, so the
// relaxation's value stays measured, not assumed.
//
// NativeOps<Relaxed> is the word and its operations; it allocates nothing.
// The operations take a Cell (the bare atomic); a Word is a Cell padded to
// its own cache line, and is what every alloc() hands out; a Line is
// kLineCells cells sharing one cache line, and is what every alloc_line()
// hands out, so that a VersionedSpace record's three cells move as one line
// on a first access in a fresh incarnation. BasicNativeModel allocates
// words and lines on the heap; ipc::ShmSpace allocates them out of a
// shared-memory arena (lines since shm layout 7), so both word spaces run
// the same operations over the same layouts.
//
// This model performs no accounting; instantiating the lock templates with
// it yields the deployable library (aml::AbortableLock).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/edges.hpp"
#include "aml/model/types.hpp"

namespace aml::model {

/// `Relaxed` selects the memory-ordering regime of the ordered vocabulary:
/// true (the production default) lowers read_acq/write_rel/wait to real
/// acquire/release hardware orders; false lowers everything to seq_cst,
/// reproducing the conservative pre-relaxation model for A/B measurement.
template <bool Relaxed>
class NativeOps {
 public:
  /// One atomic word, unpadded: the operand every operation below takes.
  /// Cells exist on their own only where a space deliberately puts several
  /// on one line (alloc_line).
  // AML_SHM_REGION_BEGIN
  struct Cell {
    std::atomic<std::uint64_t> v{0};
  };

  /// One shared word: a cell padded to a cache line so that the per-slot
  /// spin words of the queue lock do not false-share, which the CC cost
  /// model assumes — across processes too, when the word lives in a shm
  /// arena. A Word& binds to every Cell& parameter.
  struct alignas(pal::kCacheLine) Word : Cell {};

  /// Cells that alloc_line() puts on one line: a VersionedSpace record's
  /// V_w, w_0 and w_1, which are always touched together.
  static constexpr std::size_t kLineCells = 3;

  /// kLineCells cells on one cache line of their own.
  struct alignas(pal::kCacheLine) Line {
    Cell cells[kLineCells];
  };
  // AML_SHM_REGION_END

  explicit NativeOps(Pid nprocs) : nprocs_(nprocs) {}

  NativeOps(const NativeOps&) = delete;
  NativeOps& operator=(const NativeOps&) = delete;

  Pid nprocs() const { return nprocs_; }

  // --- base vocabulary (seq_cst, the paper's register model) -------------

  std::uint64_t read(Pid, Cell& w) const {
    return w.v.load(std::memory_order_seq_cst);
  }

  void write(Pid, Cell& w, std::uint64_t x) {
    w.v.store(x, std::memory_order_seq_cst);
  }

  std::uint64_t faa(Pid, Cell& w, std::uint64_t delta) {
    return w.v.fetch_add(delta, std::memory_order_seq_cst);
  }

  bool cas(Pid, Cell& w, std::uint64_t expected, std::uint64_t desired) {
    return w.v.compare_exchange_strong(expected, desired,
                                       std::memory_order_seq_cst);
  }

  std::uint64_t swap(Pid, Cell& w, std::uint64_t x) {
    return w.v.exchange(x, std::memory_order_seq_cst);
  }

  // --- ordered vocabulary (edge carriers; see file header) ---------------

  /// Acquire-side carrier: the caller names the edge (amlint R8).
  std::uint64_t read_acq(Pid, Cell& w) const {
    if constexpr (Relaxed) {
      return w.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
    } else {
      return w.v.load(std::memory_order_seq_cst);
    }
  }

  /// Unordered read: only for values re-validated by a later synchronizing
  /// operation, or owner-local state (justified AML_RELAXED at call sites).
  std::uint64_t read_rlx(Pid, Cell& w) const {
    if constexpr (Relaxed) {
      return w.v.load(std::memory_order_relaxed);  // AML_RELAXED(carrier; justification at call sites)
    } else {
      return w.v.load(std::memory_order_seq_cst);
    }
  }

  /// Release-side carrier: the caller names the edge (amlint R8).
  void write_rel(Pid, Cell& w, std::uint64_t x) {
    if constexpr (Relaxed) {
      w.v.store(x, std::memory_order_release);  // AML_V_EDGE(model.native.carrier)
    } else {
      w.v.store(x, std::memory_order_seq_cst);
    }
  }

  /// Unordered write: pre-publication initialization or values published by
  /// a later release (justified AML_RELAXED at call sites).
  void write_rlx(Pid, Cell& w, std::uint64_t x) {
    if constexpr (Relaxed) {
      w.v.store(x, std::memory_order_relaxed);  // AML_RELAXED(carrier; justification at call sites)
    } else {
      w.v.store(x, std::memory_order_seq_cst);
    }
  }

  /// Busy-wait until pred(value) holds or the stop flag is raised. The
  /// predicate is evaluated on fresh loads; lock hand-off wins ties with the
  /// stop flag.
  ///
  /// The spin load is the acquire side of every hand-off edge: the waiter
  /// leaves the loop only after observing a value some release-side store
  /// published, so everything sequenced before that store is visible here.
  /// Callers name the concrete edge (amlint R8 requires a tag on every
  /// wait() call in the covered paths).
  template <typename Pred>
  WaitOutcome wait(Pid, Cell& w, Pred&& pred,
                   const std::atomic<bool>* stop) const {
    pal::Backoff backoff;
    for (;;) {
      std::uint64_t v;
      if constexpr (Relaxed) {
        v = w.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
      } else {
        v = w.v.load(std::memory_order_seq_cst);
      }
      if (pred(v)) return {v, false};
      if (stop != nullptr &&
          stop->load(std::memory_order_acquire)) {  // AML_X_EDGE(core.abort_signal)
        return {v, true};
      }
      backoff.pause();
    }
  }

  /// Two-word busy-wait (see CountingModel::wait_either).
  template <typename Pred1, typename Pred2>
  WaitOutcome2 wait_either(Pid, Cell& w1, Pred1&& pred1, Cell& w2,
                           Pred2&& pred2,
                           const std::atomic<bool>* stop) const {
    pal::Backoff backoff;
    for (;;) {
      std::uint64_t v1;
      std::uint64_t v2;
      if constexpr (Relaxed) {
        v1 = w1.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
        if (pred1(v1)) return {v1, 0, false};
        v2 = w2.v.load(std::memory_order_acquire);  // AML_X_EDGE(model.native.carrier)
      } else {
        v1 = w1.v.load(std::memory_order_seq_cst);
        if (pred1(v1)) return {v1, 0, false};
        v2 = w2.v.load(std::memory_order_seq_cst);
      }
      if (pred2(v2)) return {v1, v2, false};
      if (stop != nullptr &&
          stop->load(std::memory_order_acquire)) {  // AML_X_EDGE(core.abort_signal)
        return {v1, v2, true};
      }
      backoff.pause();
    }
  }

 private:
  Pid nprocs_;
};

/// The in-process model: NativeOps over heap-allocated words.
template <bool Relaxed>
class BasicNativeModel : public NativeOps<Relaxed> {
 public:
  using Cell = typename NativeOps<Relaxed>::Cell;
  using Word = typename NativeOps<Relaxed>::Word;
  using Line = typename NativeOps<Relaxed>::Line;
  using NativeOps<Relaxed>::kLineCells;

  explicit BasicNativeModel(Pid nprocs = 1) : NativeOps<Relaxed>(nprocs) {}

  /// Allocate `n` *contiguous* words initialized to `init`. Each request is
  /// its own block, so addresses are stable for the model's lifetime and
  /// w[0..n) is valid pointer arithmetic.
  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    blocks_.emplace_back(n);
    std::vector<Word>& block = blocks_.back();
    for (std::size_t i = 0; i < n; ++i) {
      // Pre-publication: the block escapes only through the caller's own
      // pointer; sharing it with other processes is the caller's edge.
      block[i].v.store(init, std::memory_order_relaxed);  // AML_RELAXED(init before the block is shared)
    }
    total_words_ += n;
    return block.data();
  }

  /// Allocate kLineCells unpadded cells on one fresh cache line, cell i
  /// initialized to `init[i]`; w[0..kLineCells) is valid pointer arithmetic.
  /// No other allocation shares the line. Counted as kLineCells words.
  Cell* alloc_line(const std::array<std::uint64_t, kLineCells>& init) {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    Line& line = lines_.emplace_back();
    for (std::size_t i = 0; i < kLineCells; ++i) {
      line.cells[i].v.store(init[i], std::memory_order_relaxed);  // AML_RELAXED(init before the line is shared)
    }
    total_words_ += kLineCells;
    return line.cells;
  }

  /// Locality-annotated allocation (DSM vocabulary). Native hardware has no
  /// permanent locality, so this forwards to alloc(); it exists so that the
  /// DSM lock variant instantiates on every model.
  Word* alloc_owned(Pid /*owner*/, std::size_t n, std::uint64_t init = 0) {
    return alloc(n, init);
  }

  /// Number of words allocated so far (space-accounting hook shared with the
  /// counting models so bench_table1_space works on any model).
  std::size_t words_allocated() const {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    return total_words_;
  }

 private:
  mutable std::mutex alloc_mu_;
  std::deque<std::vector<Word>> blocks_;  // one block per alloc; stable
  std::deque<Line> lines_;                // one line per alloc_line; stable
  std::size_t total_words_ = 0;
};

/// The production model: per-edge acquire/release on the justified paths.
using NativeModel = BasicNativeModel<true>;

/// The conservative twin: every carrier lowered to seq_cst. Exists for A/B
/// measurement (bench_native_throughput's relaxation gate) and for
/// bisecting a suspected ordering bug back to the strong baseline.
using NativeModelSeqCst = BasicNativeModel<false>;

}  // namespace aml::model
