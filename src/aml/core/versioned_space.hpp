// Lazy-reset word space for recycling one-shot lock instances (Section 6.2,
// "Recycling one-shot locks").
//
// A one-shot lock instance must be reset to its initial values before reuse,
// but a single O(s(N))-RMR reset would break the transformation's RMR bound.
// Following the paper (which borrows from Aghazadeh, Golab & Woelfel's
// resettable-objects scheme without stealing bits from the payload words):
//
//   * each logical word w is backed by a version word V_w = (v_w, b_w) and
//     two incarnations w_0, w_1;
//   * the invariant is that w's *next* incarnation w_{1-b_w} always contains
//     w's initial value;
//   * the instance has a current version v, bumped by the recycler on each
//     reuse; a process reads v once per acquisition (begin_session, +O(1)
//     RMRs);
//   * on its first access to w in a session, a process reads V_w; if
//     v_w == v it uses w_{b_w}; otherwise it CASes V_w to (v, 1-b_w), resets
//     the stale w_{b_w} to the initial value (preparing the *next*
//     incarnation), and uses w_{1-b_w}. Losers of the CAS re-read V_w, which
//     then holds the current version. Subsequent accesses in the session use
//     the resolved incarnation directly (cached process-locally);
//   * to defeat version wraparound (v_w lives in W-1 bits of a W-bit word),
//     the recycler eagerly resets ceil(s / 2^(W-1)) words per reuse with a
//     rotating cursor, so every word is fully reset at least once per
//     wraparound period. This adds O(s(N)/2^W) = O(1) RMRs per reuse.
//
// The space exposes the same read/write/faa/wait vocabulary as a memory
// model, so Tree and OneShotLock instantiate over it unchanged.
//
// Placement: on a space with alloc_line (the heap NativeModel, and
// ipc::ShmSpace since shm layout 7) a record's V_w, w_0 and w_1 share one
// cache line of their own, so the lazy reset moves one line per first
// access, not three. The counting models have no alloc_line: they get three
// separate alloc(1) words in the order V_w, w_0, w_1 and price each as its
// own word.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "aml/model/ordered.hpp"
#include "aml/model/types.hpp"
#include "aml/pal/bits.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"

namespace aml::core {

using model::Pid;

namespace detail {

/// A space that can put one record's three backing words on one cache line
/// (model::BasicNativeModel::alloc_line, ipc::ShmSpace::alloc_line).
template <typename M>
concept LinePacking = requires(M& m) {
  { m.alloc_line({std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{0}}) };
};

/// The operand type a record's backing words are addressed through: the
/// space's unpadded Cell when it packs lines, else its Word.
template <typename M>
struct RecordSlot {
  using type = typename M::Word;
};
template <LinePacking M>
struct RecordSlot<M> {
  using type = typename M::Cell;
};

}  // namespace detail

template <typename M>
class VersionedSpace {
 public:
  /// Handle to a logical word: an index into the space's tables. Stable.
  struct Word {
    std::uint32_t idx;
  };

  /// `w` is the word width: the version field of V_w has w-1 bits (the low
  /// bit is the incarnation bit), matching the paper's W-bit words.
  VersionedSpace(M& mem, Pid nprocs, std::uint32_t w)
      : mem_(mem),
        nprocs_(nprocs),
        version_mask_((w >= 64 ? ~std::uint64_t{0} : pal::empty_word(w)) >> 1),
        sessions_(nprocs),
        locals_(nprocs) {
    AML_ASSERT(w >= 2 && w <= 64, "W must be in [2, 64]");
    version_word_ = mem_.alloc(1, 0);
  }

  VersionedSpace(const VersionedSpace&) = delete;
  VersionedSpace& operator=(const VersionedSpace&) = delete;

  /// Allocate `n` logical words with initial value `init`. Only valid before
  /// the instance becomes shared (construction time). The returned handles
  /// are contiguous (each alloc gets its own handle block).
  Word* alloc(std::size_t n, std::uint64_t init) {
    const std::size_t base = records_.size();
    for (std::size_t i = 0; i < n; ++i) {
      Record rec;
      if constexpr (kLinePacked) {
        // A first access touches V_w and then one incarnation, and a switch
        // resets the other: one line serves all three.
        Slot* line = mem_.alloc_line({0, init, init});
        rec.vw = line;
        rec.inc[0] = line + 1;
        rec.inc[1] = line + 2;
      } else {
        // Three words, in this order: the counting models' word ids depend
        // on it.
        rec.vw = mem_.alloc(1, 0);  // version 0, incarnation 0
        rec.inc[0] = mem_.alloc(1, init);
        rec.inc[1] = mem_.alloc(1, init);
      }
      rec.init = init;
      records_.push_back(rec);
    }
    handle_blocks_.emplace_back();
    std::vector<Word>& block = handle_blocks_.back();
    block.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      block.push_back(Word{static_cast<std::uint32_t>(base + i)});
    }
    return block.data();
  }

  /// DSM vocabulary passthrough (recycled instances are CC-only in the
  /// paper, but this keeps the space a drop-in word space).
  Word* alloc_owned(Pid /*owner*/, std::size_t n, std::uint64_t init) {
    return alloc(n, init);
  }

  // --- session management ----------------------------------------------

  /// Read the instance's current version. Every process must call this once
  /// after its F&A on LockDesc made the instance's use safe (Claim 24) and
  /// before any other access. Costs O(1) RMRs.
  void begin_session(Pid self) {
    sessions_[self]->current = mem_.read(self, *version_word_);
    sessions_[self]->epoch++;
  }

  /// Recycler-only: advance to the next incarnation. The caller must have
  /// exclusive, quiescent access to the instance (it holds the replaced
  /// instance, or is about to install this one while refcnt is 0). Performs
  /// the wraparound quota of eager resets.
  void next_incarnation(Pid self) {
    const std::uint64_t v =
        (mem_.read(self, *version_word_) + 1) & version_mask_;
    mem_.write(self, *version_word_, v);
    incarnations_++;
    // Eager reset quota: ceil(s / 2^(W-1)) words per reuse.
    const std::uint64_t period = version_mask_ + 1;
    std::uint64_t quota =
        (records_.size() + period - 1) / period;
    for (std::uint64_t k = 0; k < quota && !records_.empty(); ++k) {
      Record& rec = records_[cursor_ % records_.size()];
      cursor_++;
      mem_.write(self, *rec.inc[0], rec.init);
      mem_.write(self, *rec.inc[1], rec.init);
      mem_.write(self, *rec.vw, (v << 1) | 0);  // (v, b=0), both incs initial
    }
  }

  /// Total reuses so far (introspection).
  std::uint64_t incarnations() const { return incarnations_; }

  std::size_t logical_words() const { return records_.size(); }

  // --- oracle probes (no gating, no accounting; scheduler-thread safe) --

  /// Current instance version (the recycler-bumped word).
  std::uint64_t peek_version() const { return mem_.peek(*version_word_); }
  /// Raw V_w = (v_w << 1) | b_w of logical word `idx`.
  std::uint64_t peek_vw(std::size_t idx) const {
    return mem_.peek(*records_[idx].vw);
  }
  std::uint64_t version_mask() const { return version_mask_; }
  /// Backing words {V_w, w_0, w_1} of logical word `idx` (layout tests).
  std::array<const void*, 3> backing(std::size_t idx) const {
    const Record& rec = records_[idx];
    return {rec.vw, rec.inc[0], rec.inc[1]};
  }

  // --- model vocabulary --------------------------------------------------

  std::uint64_t read(Pid self, Word& w) {
    return mem_.read(self, resolve(self, w));
  }

  void write(Pid self, Word& w, std::uint64_t x) {
    mem_.write(self, resolve(self, w), x);
  }

  std::uint64_t faa(Pid self, Word& w, std::uint64_t delta) {
    return mem_.faa(self, resolve(self, w), delta);
  }

  template <typename Pred>
  model::WaitOutcome wait(Pid self, Word& w, Pred&& pred,
                          const std::atomic<bool>* stop) {
    // Spin loads inherit the model's acquire carrier (see native.hpp).
    return mem_.wait(self, resolve(self, w),  // AML_X_EDGE(model.native.carrier)
                     static_cast<Pred&&>(pred), stop);
  }

  // Ordered forwarders: resolution itself synchronizes via seq_cst CAS; the
  // resolved incarnation word then carries the caller's edge through the
  // model's ordered vocabulary (identity fallback on counting models).

  std::uint64_t read_acq(Pid self, Word& w) {
    return model::ord::read_acq(mem_, self, resolve(self, w));  // AML_X_EDGE(model.native.carrier)
  }

  std::uint64_t read_rlx(Pid self, Word& w) {
    return model::ord::read_rlx(mem_, self, resolve(self, w));  // AML_RELAXED(forwarder; justification at outer call site)
  }

  void write_rel(Pid self, Word& w, std::uint64_t x) {
    model::ord::write_rel(mem_, self, resolve(self, w), x);  // AML_V_EDGE(model.native.carrier)
  }

  void write_rlx(Pid self, Word& w, std::uint64_t x) {
    model::ord::write_rlx(mem_, self, resolve(self, w), x);  // AML_RELAXED(forwarder; justification at outer call site)
  }

 private:
  static constexpr bool kLinePacked = detail::LinePacking<M>;
  using Slot = typename detail::RecordSlot<M>::type;

  struct Record {
    Slot* vw = nullptr;
    Slot* inc[2] = {nullptr, nullptr};
    std::uint64_t init = 0;
  };

  struct Session {
    std::uint64_t current = 0;  ///< instance version read at session start
    std::uint64_t epoch = 0;    ///< bumped per begin_session
  };

  struct LocalEntry {
    std::uint64_t epoch = 0;  ///< session epoch this resolution belongs to
    std::uint8_t inc = 0;
  };

  /// Resolve the live incarnation of `w` for this process' session,
  /// performing the lazy reset protocol on first access.
  Slot& resolve(Pid self, Word w) {
    Record& rec = records_[w.idx];
    auto& local = *locals_[self];
    if (local.size() < records_.size()) local.resize(records_.size());
    LocalEntry& entry = local[w.idx];
    const Session& session = *sessions_[self];
    if (entry.epoch == session.epoch) {
      return *rec.inc[entry.inc];  // already resolved this session
    }
    const std::uint64_t v = session.current;
    std::uint64_t raw = mem_.read(self, *rec.vw);
    std::uint64_t vw = raw >> 1;
    std::uint32_t b = static_cast<std::uint32_t>(raw & 1);
    if (vw != v) {
      // Stale: switch to the next incarnation (which holds the initial
      // value) and prepare the now-retired one for the switch after that.
      const std::uint64_t desired = (v << 1) | (1 - b);
      if (mem_.cas(self, *rec.vw, raw, desired)) {
        mem_.write(self, *rec.inc[b], rec.init);
        b = 1 - b;
      } else {
        // A same-session process won the switch; V_w now holds version v.
        raw = mem_.read(self, *rec.vw);
        AML_DASSERT((raw >> 1) == v, "V_w must hold the session version");
        b = static_cast<std::uint32_t>(raw & 1);
      }
    }
    entry.epoch = session.epoch;
    entry.inc = static_cast<std::uint8_t>(b);
    return *rec.inc[b];
  }

  M& mem_;
  Pid nprocs_;
  std::uint64_t version_mask_;  ///< versions live in W-1 bits
  typename M::Word* version_word_ = nullptr;
  std::deque<Record> records_;
  std::deque<std::vector<Word>> handle_blocks_;  // stable, contiguous
  std::uint64_t cursor_ = 0;        ///< recycler-only eager-reset cursor
  std::uint64_t incarnations_ = 0;  ///< recycler-only
  std::vector<pal::CachePadded<Session>> sessions_;
  std::vector<pal::CachePadded<std::vector<LocalEntry>>> locals_;
};

}  // namespace aml::core
