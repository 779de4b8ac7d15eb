// CountingModel<Rule>: a simulated shared memory that implements the paper's
// RMR accounting (Section 2) *by definition* rather than by hardware
// approximation. The paper defines one shared memory and two ways to charge
// an access to it, CC and DSM; this body is the memory, and `Rule` is the
// charge (counting_cc.hpp: CcRmrRule, counting_dsm.hpp: DsmRmrRule).
//
// Implementation: each word carries a version counter bumped on every
// mutation (a CAS bumps it whether or not it succeeds). A tiny per-word
// spinlock makes (value, version) updates atomic; the model is
// linearizable, so algorithms observe exactly the atomic-register semantics
// the paper assumes. The rule sees each access's word, pid and version and
// decides whether it is an RMR:
//
//   void charge_read(Pid p, const CountingWord& w, std::uint64_t version,
//                    bool opens_wait, OpCounters& c);
//       // bump c.local_reads or c.rmrs (reads++ is the model's);
//       // opens_wait marks the first round of a busy-wait
//   void charge_mutation(Pid p, const CountingWord& w,
//                        std::uint64_t version, OpCounters& c);
//       // bump c.rmrs if the write/F&A/CAS/SWAP is remote
//
// A ScheduleHook may be installed to gate every operation, which the
// deterministic scheduler (aml/sched) uses to serialize and replay
// executions.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aml/pal/backoff.hpp"
#include "aml/pal/cache.hpp"
#include "aml/model/types.hpp"

namespace aml::model {

/// One simulated shared word.
struct CountingWord {
  std::atomic<std::uint32_t> lock{0};     ///< word spinlock
  std::atomic<std::uint64_t> version{0};  ///< bumped on every mutation
  std::uint64_t value = 0;                ///< guarded by `lock`
  std::uint32_t id = 0;  ///< dense id, stable across replays (footprints)
  Pid owner = kNoPid;    ///< the process the word is local to (DSM rule)
};

template <typename Rule>
class CountingModel {
 public:
  using Word = CountingWord;

  explicit CountingModel(Pid nprocs)
      : nprocs_(nprocs), counters_(nprocs), rule_(nprocs) {}

  CountingModel(const CountingModel&) = delete;
  CountingModel& operator=(const CountingModel&) = delete;

  Pid nprocs() const { return nprocs_; }

  /// Install (or clear) the scheduler gate. Must not race with operations.
  void set_hook(ScheduleHook* hook) { hook_ = hook; }
  ScheduleHook* hook() const { return hook_; }

  /// Allocate `n` *contiguous* words local to `owner` (kNoPid = local to
  /// nobody, e.g. dynamically-assigned queue slots whose locality cannot be
  /// guaranteed), initialized to `init`. Each request gets its own block (a
  /// vector inside a deque of blocks), so returned pointers are stable for
  /// the model's lifetime and w[0..n) is valid pointer arithmetic.
  Word* alloc_owned(Pid owner, std::size_t n, std::uint64_t init = 0) {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    blocks_.emplace_back(n);
    std::vector<Word>& block = blocks_.back();
    for (std::size_t i = 0; i < n; ++i) {
      block[i].value = init;
      block[i].id = static_cast<std::uint32_t>(next_id_++);
      block[i].owner = owner;
    }
    total_words_ += n;
    return block.data();
  }

  /// Model-concept alloc: words local to nobody. The lock templates use
  /// this for central variables (Tail, Head, tree nodes, ...) whose accessor
  /// set is unbounded.
  Word* alloc(std::size_t n, std::uint64_t init = 0) {
    return alloc_owned(kNoPid, n, init);
  }

  /// Allocate a gated abort signal (model::Signal). The signal's id is drawn
  /// from the same address space as word ids so step footprints can name it;
  /// the returned pointer is stable for the model's lifetime.
  Signal* alloc_signal() {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    signals_.emplace_back();
    Signal& s = signals_.back();
    s.id = next_id_++;
    signal_ids_.emplace(&s.flag, s.id);
    return &s;
  }

  /// Raise an abort signal as a gated, footprinted step of process `p`.
  /// This is the adversary's action in the paper's model (no RMR charge),
  /// but unlike a plain atomic store it is visible to the scheduler and to
  /// partial-order reduction: the raise conflicts with every wait watching
  /// the signal, so reduced exploration still reorders abort deliveries
  /// against the waits they interrupt.
  void raise_signal(Pid p, Signal& s) {
    gate(p, Footprint{s.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    s.flag.store(true, std::memory_order_release);
  }

  /// Footprint address of a stop flag: the signal id if `stop` belongs to a
  /// Signal allocated from this model, kNoAddr otherwise (plain atomics stay
  /// usable, they are just invisible to reduction).
  std::uint64_t signal_addr(const std::atomic<bool>* stop) const {
    if (stop == nullptr) return Footprint::kNoAddr;
    std::lock_guard<std::mutex> guard(alloc_mu_);
    const auto it = signal_ids_.find(stop);
    return it == signal_ids_.end() ? Footprint::kNoAddr : it->second;
  }

  std::uint64_t read(Pid p, Word& w) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kRead,
                      Footprint::Kind::kNone});
    return charged_load(p, w, false).first;
  }

  // Op counters are bumped after the gated step, never while it waits at
  // the gate, so a scheduler callback only ever sees completed steps.

  void write(Pid p, Word& w, std::uint64_t x) {
    mutate(p, w, [x](std::uint64_t) { return x; });
    counters(p).writes++;
  }

  std::uint64_t faa(Pid p, Word& w, std::uint64_t delta) {
    const std::uint64_t old =
        mutate(p, w, [delta](std::uint64_t v) { return v + delta; });
    counters(p).faas++;
    return old;
  }

  /// Per the paper's model a CAS invalidates readers whether or not it
  /// succeeds ("another process performed a write, CAS, or F&A to w"), so
  /// a failed CAS bumps the version and is charged like a successful one.
  bool cas(Pid p, Word& w, std::uint64_t expected, std::uint64_t desired) {
    const std::uint64_t old = mutate(p, w, [=](std::uint64_t v) {
      return v == expected ? desired : v;
    });
    auto& c = counters(p);
    c.cas_attempts++;
    if (old != expected) c.cas_failures++;
    return old == expected;
  }

  std::uint64_t swap(Pid p, Word& w, std::uint64_t x) {
    const std::uint64_t old = mutate(p, w, [x](std::uint64_t) { return x; });
    counters(p).swaps++;
    return old;
  }

  /// Busy-wait until pred(value) holds or the stop flag is raised. Each
  /// round re-reads the word and charges it like a read (the rule decides
  /// whether a re-check is local); between rounds the process parks until
  /// the word is mutated, exactly the busy-wait cost model the paper charges.
  template <typename Pred>
  WaitOutcome wait(Pid p, Word& w, Pred&& pred, const std::atomic<bool>* stop) {
    // The wait also reads the stop flag, so the step footprint carries the
    // signal's address (when registered): a concurrent raise_signal is then
    // a dependent step and reduction explores both orderings.
    const Footprint fp{w.id, signal_addr(stop), Footprint::Kind::kRead,
                       Footprint::Kind::kRead};
    for (bool first = true;; first = false) {
      gate(p, fp);
      const auto [value, version] = charged_load(p, w, first);
      if (pred(value)) return {value, false};
      if (raised(stop)) return {value, true};
      counters(p).wait_wakeups++;
      park(p, w, version, stop);
    }
  }

  /// Busy-wait on TWO words: return as soon as pred1(value of w1) or
  /// pred2(value of w2) holds, or the stop flag is raised with neither
  /// predicate true. Needed by read/write-only algorithms (Peterson locks)
  /// whose exit condition spans two variables. Both reads of a round are
  /// charged like wait()'s; both reads of the first round open the wait.
  template <typename Pred1, typename Pred2>
  WaitOutcome2 wait_either(Pid p, Word& w1, Pred1&& pred1, Word& w2,
                           Pred2&& pred2, const std::atomic<bool>* stop) {
    const std::uint64_t stop_addr = signal_addr(stop);
    const Footprint fp1{w1.id, stop_addr, Footprint::Kind::kRead,
                        Footprint::Kind::kRead};
    const Footprint fp2{w2.id, stop_addr, Footprint::Kind::kRead,
                        Footprint::Kind::kRead};
    for (bool first = true;; first = false) {
      gate(p, fp1);
      const auto [v1, ver1] = charged_load(p, w1, first);
      if (pred1(v1)) return {v1, 0, false};
      gate(p, fp2);
      const auto [v2, ver2] = charged_load(p, w2, first);
      if (pred2(v2)) return {v1, v2, false};
      if (raised(stop)) return {v1, v2, true};
      counters(p).wait_wakeups++;
      park(p, w1, ver1, stop, &w2, ver2);
    }
  }

  // --- accounting -----------------------------------------------------

  const OpCounters& counters(Pid p) const { return *counters_[p]; }
  OpCounters& counters(Pid p) { return *counters_[p]; }

  OpCounters total_counters() const {
    OpCounters total;
    for (Pid p = 0; p < nprocs_; ++p) total += *counters_[p];
    return total;
  }

  void reset_counters() {
    for (Pid p = 0; p < nprocs_; ++p) *counters_[p] = OpCounters{};
  }

  /// Words allocated so far (signals are not words).
  std::size_t words_allocated() const {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    return total_words_;
  }

  /// Harness-only: set a word without gating or accounting. Used by
  /// scheduler callbacks (which are not processes) to open coordination
  /// gates; bumps the version so parked waiters become runnable.
  void poke(Word& w, std::uint64_t x) {
    lock_word(w);
    w.value = x;
    w.version.fetch_add(1, std::memory_order_release);
    unlock_word(w);
  }

  /// Test probe: current value of a word without accounting or gating.
  std::uint64_t peek(const Word& w) const {
    return load_pair(const_cast<Word&>(w)).first;
  }

 private:
  /// Announce the step's footprint, then gate. The announcement always
  /// precedes the matching on_step() so a scheduler can attach the footprint
  /// to the grant decision it is about to make.
  void gate(Pid p, const Footprint& f) {
    if (hook_ != nullptr) {
      hook_->on_footprint(p, f);
      hook_->on_step(p);
    }
  }

  static void lock_word(Word& w) {
    pal::Backoff backoff;
    while (w.lock.exchange(1, std::memory_order_acquire) != 0) {
      backoff.pause();
    }
  }
  static void unlock_word(Word& w) {
    w.lock.store(0, std::memory_order_release);
  }

  /// Atomically read (value, version).
  static std::pair<std::uint64_t, std::uint64_t> load_pair(Word& w) {
    lock_word(w);
    const std::uint64_t value = w.value;
    const std::uint64_t version = w.version.load(std::memory_order_relaxed);
    unlock_word(w);
    return {value, version};
  }

  /// Read (value, version) and charge it to p as a read.
  std::pair<std::uint64_t, std::uint64_t> charged_load(Pid p, Word& w,
                                                       bool opens_wait) {
    const auto loaded = load_pair(w);
    auto& c = counters(p);
    c.reads++;
    rule_.charge_read(p, w, loaded.second, opens_wait, c);
    return loaded;
  }

  /// The one gated read-modify-write: value <- next(value), version bumped,
  /// charged to p as a mutation. Returns the previous value.
  template <typename Next>
  std::uint64_t mutate(Pid p, Word& w, Next next) {
    gate(p, Footprint{w.id, Footprint::kNoAddr, Footprint::Kind::kMutate,
                      Footprint::Kind::kNone});
    lock_word(w);
    const std::uint64_t old = w.value;
    w.value = next(old);
    const std::uint64_t version =
        w.version.fetch_add(1, std::memory_order_release) + 1;
    unlock_word(w);
    rule_.charge_mutation(p, w, version, counters(p));
    return old;
  }

  static bool raised(const std::atomic<bool>* stop) {
    return stop != nullptr && stop->load(std::memory_order_acquire);
  }

  /// Park until w1 is mutated past `seen1` (or w2 past `seen2`, when given)
  /// or the stop flag is raised. Delegates to the scheduler hook when
  /// installed.
  void park(Pid p, Word& w1, std::uint64_t seen1,
            const std::atomic<bool>* stop, Word* w2 = nullptr,
            std::uint64_t seen2 = 0) {
    if (hook_ != nullptr) {
      hook_->on_block(p, &w1.version, seen1, stop,
                      w2 == nullptr ? nullptr : &w2->version, seen2);
      return;
    }
    pal::Backoff backoff;
    while (w1.version.load(std::memory_order_acquire) == seen1 &&
           (w2 == nullptr ||
            w2->version.load(std::memory_order_acquire) == seen2) &&
           !raised(stop)) {
      backoff.pause();
    }
  }

  Pid nprocs_;
  ScheduleHook* hook_ = nullptr;
  mutable std::mutex alloc_mu_;
  std::deque<std::vector<Word>> blocks_;  // one block per alloc; stable
  std::deque<Signal> signals_;            // stable addresses, ids in word space
  std::unordered_map<const std::atomic<bool>*, std::uint64_t> signal_ids_;
  std::size_t next_id_ = 0;      // word and signal ids
  std::size_t total_words_ = 0;  // words only
  std::vector<pal::CachePadded<OpCounters>> counters_;
  Rule rule_;
};

}  // namespace aml::model
