// aml::model::ord — ordered-vocabulary shims over any word space.
//
// Core algorithms speak the model vocabulary (read/write/faa/cas/swap/wait),
// not raw atomics, so a per-edge relaxation cannot be expressed by editing a
// memory_order argument at the call site. These free functions bridge the
// gap: `ord::write_rel(space, self, word, x)` lowers to the space's
// `write_rel` when it has one (NativeModel and ShmSpace, through NativeOps,
// and the spaces that forward to them) and falls back to the seq_cst `write` otherwise. The counting/sched
// models deliberately do NOT implement the ordered members: under the
// paper's seq_cst register model there is nothing to relax, the fallback
// keeps their RMR/step accounting byte-identical, and the model checker
// explores exactly the executions it always did.
//
// Every call through these shims is an edge endpoint and must carry an
// AML_V_EDGE/AML_X_EDGE/AML_RELAXED annotation at the call site (amlint R8);
// see aml/pal/edges.hpp and docs/MEMORY_MODEL.md.
#pragma once

#include <cstdint>

#include "aml/model/types.hpp"
#include "aml/pal/edges.hpp"

namespace aml::model::ord {

/// Acquire load (falls back to seq_cst read). Acquire-side edge endpoint.
template <typename S, typename W>
std::uint64_t read_acq(S& space, Pid self, W& w) {
  if constexpr (requires { space.read_acq(self, w); }) {
    return space.read_acq(self, w);
  } else {
    return space.read(self, w);
  }
}

/// Relaxed load (falls back to seq_cst read). Requires AML_RELAXED.
template <typename S, typename W>
std::uint64_t read_rlx(S& space, Pid self, W& w) {
  if constexpr (requires { space.read_rlx(self, w); }) {
    return space.read_rlx(self, w);
  } else {
    return space.read(self, w);
  }
}

/// Release store (falls back to seq_cst write). Release-side edge endpoint.
template <typename S, typename W>
void write_rel(S& space, Pid self, W& w, std::uint64_t x) {
  if constexpr (requires { space.write_rel(self, w, x); }) {
    space.write_rel(self, w, x);
  } else {
    space.write(self, w, x);
  }
}

/// Relaxed store (falls back to seq_cst write). Requires AML_RELAXED.
template <typename S, typename W>
void write_rlx(S& space, Pid self, W& w, std::uint64_t x) {
  if constexpr (requires { space.write_rlx(self, w, x); }) {
    space.write_rlx(self, w, x);
  } else {
    space.write(self, w, x);
  }
}

// There are intentionally no relaxed RMW shims: every F&A/CAS/swap in the
// algorithms is either a synchronization point (queue append, hand-off
// switch, recoverable-journal install) or participates in a Dekker-shaped
// pattern, and both need the full seq_cst fence semantics. A future edge
// that genuinely licenses an acq_rel RMW should add the shim together with
// its manifest entry and litmus test, not reuse these.

}  // namespace aml::model::ord
