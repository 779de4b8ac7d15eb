// ThreadRegistry: lock-free leasing of dense process ids.
//
// Every algorithm in this library identifies processes by a dense integer in
// [0, max_threads) — the paper's fixed-N model. That is fine for benchmark
// harnesses that spawn exactly N threads, but a servable lock table is used
// from thread pools whose OS threads come and go. The registry bridges the
// two worlds: an OS thread *leases* a slot (lock-free: one CAS on a bitmap
// word in the common case), uses the dense id for any number of lock
// operations, and releases it on scope exit via the RAII Lease. Released ids
// are immediately reusable by other threads, so a pool of P live threads
// needs only max_threads >= P, not one id per thread ever created.
//
// The correctness obligation that makes recycling safe is the caller's: a
// lease may be released only when the thread holds no lock keyed by the id
// and has no attempt in flight. The lock table's RAII types enforce this by
// construction (guards borrow the session, and the session's lease outlives
// them); StdAbortableMutex leases per acquisition and releases after exit.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"

namespace aml::table {

class ThreadRegistry {
 public:
  static constexpr std::uint32_t kNoId = ~std::uint32_t{0};

  explicit ThreadRegistry(std::uint32_t max_threads)
      : max_threads_(max_threads),
        words_((max_threads + kBits - 1) / kBits) {
    AML_ASSERT(max_threads >= 1, "registry needs at least one slot");
  }

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  /// Lease a free id, or kNoId when all max_threads slots are live. Lock-free:
  /// each claim is one successful CAS; a failed CAS means another thread
  /// claimed a bit in the same word and we rescan that word.
  std::uint32_t try_lease() {
    // Start the scan at a rotating word to spread concurrent leasers across
    // the bitmap instead of stampeding word 0.
    const std::uint32_t nwords = static_cast<std::uint32_t>(words_.size());
    const std::uint32_t start =
        scan_hint_.fetch_add(1, std::memory_order_relaxed) % nwords;  // AML_RELAXED(scan start hint only)
    for (std::uint32_t i = 0; i < nwords; ++i) {
      const std::uint32_t wi = (start + i) % nwords;
      auto& word = words_[wi].bits;
      std::uint64_t v =
          word.load(std::memory_order_relaxed);  // AML_RELAXED(speculative; revalidated by the claim CAS)
      for (;;) {
        const std::uint64_t free = ~v & valid_mask(wi);
        if (free == 0) break;  // word full; try the next one
        const std::uint32_t bit =
            static_cast<std::uint32_t>(std::countr_zero(free));
        // Acquire half: claiming a recycled id imports the releaser's
        // fetch_and, so nothing from the previous lease's passages is
        // reordered into ours. Release half pairs with is_live/live probes.
        if (word.compare_exchange_weak(  // AML_X_EDGE(table.tid_lease) AML_V_EDGE(table.tid_lease)
                v, v | (std::uint64_t{1} << bit), std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          return wi * kBits + bit;
        }
        // v was reloaded by the failed CAS; rescan this word.
      }
    }
    return kNoId;
  }

  /// Return a leased id. The caller must own the lease and hold no lock
  /// keyed by it.
  void release(std::uint32_t id) {
    AML_ASSERT(id < max_threads_, "release of an out-of-range id");
    auto& word = words_[id / kBits].bits;
    const std::uint64_t mask = std::uint64_t{1} << (id % kBits);
    // Release half publishes everything the leaseholder did under this id
    // to the next claimer of the recycled slot.
    const std::uint64_t prev =
        word.fetch_and(~mask, std::memory_order_acq_rel);  // AML_V_EDGE(table.tid_lease)
    AML_ASSERT((prev & mask) != 0, "release of an id that is not live");
  }

  std::uint32_t max_threads() const { return max_threads_; }

  /// Number of currently live leases (linear scan; diagnostics only).
  std::uint32_t live() const {
    std::uint32_t total = 0;
    for (const auto& w : words_) {
      total += static_cast<std::uint32_t>(
          std::popcount(w.bits.load(std::memory_order_acquire)));  // AML_X_EDGE(table.tid_lease)
    }
    return total;
  }

  bool is_live(std::uint32_t id) const {
    if (id >= max_threads_) return false;
    const std::uint64_t v =
        words_[id / kBits].bits.load(std::memory_order_acquire);  // AML_X_EDGE(table.tid_lease)
    return (v >> (id % kBits)) & 1;
  }

  /// RAII lease: releases in the destructor. Move-only; default-constructed
  /// or moved-from leases hold nothing.
  class Lease {
   public:
    Lease() = default;
    Lease(ThreadRegistry& registry, std::uint32_t id)
        : registry_(&registry), id_(id) {}
    Lease(Lease&& o) noexcept
        : registry_(std::exchange(o.registry_, nullptr)),
          id_(std::exchange(o.id_, kNoId)) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        reset();
        registry_ = std::exchange(o.registry_, nullptr);
        id_ = std::exchange(o.id_, kNoId);
      }
      return *this;
    }
    ~Lease() { reset(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool valid() const { return registry_ != nullptr; }
    explicit operator bool() const { return valid(); }
    std::uint32_t id() const {
      AML_ASSERT(valid(), "id() on an empty lease");
      return id_;
    }

    void reset() {
      if (registry_ != nullptr) {
        registry_->release(id_);
        registry_ = nullptr;
        id_ = kNoId;
      }
    }

   private:
    ThreadRegistry* registry_ = nullptr;
    std::uint32_t id_ = kNoId;
  };

  /// Lease as RAII. An invalid lease (registry full) is a capacity-planning
  /// error for a lock service, so callers check valid(); acquire() below is
  /// the asserting flavor for code that sized the registry to its pool.
  Lease try_acquire() {
    const std::uint32_t id = try_lease();
    if (id == kNoId) return Lease{};
    return Lease{*this, id};
  }

  Lease acquire() {
    Lease lease = try_acquire();
    AML_ASSERT(lease.valid(), "ThreadRegistry exhausted: more live threads "
                              "than max_threads");
    return lease;
  }

 private:
  static constexpr std::uint32_t kBits = 64;

  /// Bits of word `wi` that correspond to real slots (the last word may be
  /// partial).
  std::uint64_t valid_mask(std::uint32_t wi) const {
    const std::uint32_t lo = wi * kBits;
    const std::uint32_t hi =
        lo + kBits <= max_threads_ ? kBits : max_threads_ - lo;
    return hi == kBits ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << hi) - 1;
  }

  struct alignas(pal::kCacheLine) BitWord {
    std::atomic<std::uint64_t> bits{0};
  };

  std::uint32_t max_threads_;
  std::vector<BitWord> words_;
  std::atomic<std::uint32_t> scan_hint_{0};
};

}  // namespace aml::table
