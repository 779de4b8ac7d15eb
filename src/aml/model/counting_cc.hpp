// CountingCcModel: the counting memory (counting.hpp) charged by the paper's
// cache-coherent RMR rule (Section 2):
//
//   - every write, CAS (successful or not), F&A, or SWAP incurs one RMR and
//     invalidates every other process' cached copy of the word;
//   - a read incurs one RMR iff it is the process' first access to the word
//     or the word was mutated since the process' last access; otherwise it is
//     a free local read (so is a busy-wait re-check of a valid copy);
//   - a process' own mutation leaves its own cached copy valid (the line is
//     in the modified state in its cache).
//
// Implementation: each process keeps a private map word-id -> last version
// seen; a read is local iff the word's version still matches.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "aml/pal/cache.hpp"
#include "aml/model/counting.hpp"
#include "aml/model/types.hpp"

namespace aml::model {

class CcRmrRule {
 public:
  explicit CcRmrRule(Pid nprocs) : caches_(nprocs) {}

  /// The per-process cache table is sparse: a process only ever caches the
  /// words it touched, which for this paper's algorithms is O(log_W N) per
  /// passage — a dense table over all words would dominate memory at
  /// N = 4096-process simulations.
  void charge_read(Pid p, const CountingWord& w, std::uint64_t version,
                   bool /*opens_wait*/, OpCounters& c) {
    auto [it, inserted] = caches_[p]->try_emplace(w.id, version + 1);
    if (!inserted && it->second == version + 1) {
      c.local_reads++;
    } else {
      c.rmrs++;
      it->second = version + 1;
    }
  }

  /// Every mutation is an RMR; p's cached copy stays valid at `version`
  /// (the line is in p's cache in modified state).
  void charge_mutation(Pid p, const CountingWord& w, std::uint64_t version,
                       OpCounters& c) {
    c.rmrs++;
    (*caches_[p])[w.id] = version + 1;
  }

 private:
  // Per-process cache-validity table, touched only by the owning process.
  std::vector<pal::CachePadded<std::unordered_map<std::uint32_t, std::uint64_t>>>
      caches_;
};

/// A class rather than an alias so the model keeps its own name wherever a
/// type is printed (diagnostics, typed-test names).
class CountingCcModel : public CountingModel<CcRmrRule> {
 public:
  using CountingModel::CountingModel;
};

}  // namespace aml::model
