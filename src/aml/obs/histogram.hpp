// The one latency histogram, for both sinks: a cache-padded cell of
// power-of-two buckets that the in-process Metrics keeps on the heap and
// ShmMetrics places in the segment, byte for byte the same.
//
// Bucket i holds values whose bit width is i, i.e. [2^(i-1), 2^i); reported
// percentiles and the max are therefore bucket upper bounds with at most 2x
// resolution, the usual trade for a fixed-footprint histogram. There is no
// min/max word: a sentinel-initialised min would break the rule that a
// zero-filled page is a valid empty cell.
//
// A cell has one writer at a time (the grantee recording its own hand-off),
// so record() is plain load/store bumps, not fetch_adds; a concurrent reader
// may see the old value, never a torn one. record_shared() is the fetch_add
// variant for the one cell several processes write (recovery sweeps).
// Readers merge any number of cells into one Snapshot.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "aml/ipc/offset_ptr.hpp"
#include "aml/pal/cache.hpp"

namespace aml::obs {

/// Single-writer increment: the word's owner is its only writer, so a load
/// and a store replace the RMW; readers may see the old value.
inline void bump(std::atomic<std::uint64_t>& w, std::uint64_t n = 1) {
  w.store(w.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// AML_SHM_REGION_BEGIN
struct alignas(pal::kCacheLine) LatencyHistogram {
  static constexpr std::size_t kBuckets = 65;  ///< bit widths 0..64

  /// One or more cells merged. Percentiles are nearest rank over bucket
  /// upper bounds; `max` is the upper bound of the highest non-empty bucket.
  struct Snapshot {
    std::uint64_t count = 0;  ///< sum of the buckets read
    std::uint64_t sum = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };

  std::atomic<std::uint64_t> count;
  std::atomic<std::uint64_t> sum;
  std::atomic<std::uint64_t> buckets[kBuckets];

  /// Owner record: the cell's single writer.
  void record(std::uint64_t v) {
    bump(buckets[bucket_of(v)]);
    bump(count);
    bump(sum, v);
  }

  /// Shared record, for a cell with concurrent writers.
  void record_shared(std::uint64_t v) {
    buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(v, std::memory_order_relaxed);
  }

  /// Zero the cell. Only while no writer runs.
  void reset() {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    count.store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
  }

  Snapshot snapshot() const;

  static std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }

  /// Inclusive upper bound of bucket i (0 -> 0, 1 -> 1, 2 -> 3, 3 -> 7...).
  static std::uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(LatencyHistogram);

/// Nearest-rank percentile over merged buckets: the upper bound of the
/// smallest bucket whose cumulative count reaches ceil(q * count).
inline std::uint64_t percentile(const LatencyHistogram::Snapshot& s,
                                double q) {
  const std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(s.count) + 0.9999999);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    seen += s.buckets[i];
    if (seen >= rank) return LatencyHistogram::bucket_upper(i);
  }
  return s.max;
}

/// Merge `n` cells into one snapshot. The count is the sum of the buckets
/// actually read: a live writer's count word may be ahead of its bucket.
inline LatencyHistogram::Snapshot merge(const LatencyHistogram* cells,
                                        std::size_t n) {
  LatencyHistogram::Snapshot s;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      s.buckets[i] += cells[c].buckets[i].load(std::memory_order_relaxed);
    }
    s.sum += cells[c].sum.load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (s.buckets[i] == 0) continue;
    s.count += s.buckets[i];
    s.max = LatencyHistogram::bucket_upper(i);
  }
  if (s.count == 0) return s;
  s.mean = static_cast<double>(s.sum) / static_cast<double>(s.count);
  s.p50 = percentile(s, 0.50);
  s.p90 = percentile(s, 0.90);
  s.p99 = percentile(s, 0.99);
  return s;
}

inline LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  return merge(this, 1);
}

/// A non-owning run of cells read as one histogram (e.g. every pid's
/// hand-off cell).
struct HistogramCells {
  const LatencyHistogram* cells = nullptr;
  std::size_t n = 0;

  LatencyHistogram::Snapshot snapshot() const { return merge(cells, n); }
};

}  // namespace aml::obs
