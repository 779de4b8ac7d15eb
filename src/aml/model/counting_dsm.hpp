// CountingDsmModel: the counting memory (counting.hpp) charged by the
// paper's distributed-shared-memory RMR rule (Section 2): every word is
// permanently local to one process (its owner, set by alloc_owned) and
// remote to all others; any access (read or mutation) to a remote word is
// one RMR; accesses to local words are free.
//
// Busy-waiting on a *remote* word is the failure mode the paper's DSM lock
// variant exists to avoid: each re-check of a remote word is an RMR, and the
// number of re-checks is unbounded. The rule surfaces this through the
// `remote_spin_episodes` counter (each wait on a remote word counts one
// episode, on its first round) in addition to charging an RMR per wakeup
// re-read; the DSM variant of the one-shot lock must keep episodes at zero.
#pragma once

#include <cstdint>

#include "aml/model/counting.hpp"
#include "aml/model/types.hpp"

namespace aml::model {

class DsmRmrRule {
 public:
  explicit DsmRmrRule(Pid /*nprocs*/) {}

  void charge_read(Pid p, const CountingWord& w, std::uint64_t /*version*/,
                   bool opens_wait, OpCounters& c) {
    if (w.owner == p) {
      c.local_reads++;
    } else {
      c.rmrs++;
      if (opens_wait) c.remote_spin_episodes++;
    }
  }

  void charge_mutation(Pid p, const CountingWord& w,
                       std::uint64_t /*version*/, OpCounters& c) {
    if (w.owner != p) c.rmrs++;
  }
};

/// A class for the same reason as CountingCcModel: its printed name.
class CountingDsmModel : public CountingModel<DsmRmrRule> {
 public:
  using CountingModel::CountingModel;
};

}  // namespace aml::model
