// amlint R5 fixture outside ipc/: deliberate violations of the shm-placement
// rule in an obs/ path, and ONLY that rule — no atomic op is issued and
// nothing here is in a hot-path, model-gated or ipc/ directory, so a finding
// from this file proves R5 follows the AML_SHM_REGION markers into every
// file that carries them, not just the ipc/ layer.
//
// The shape mirrors a segment-hosted ring slot: a slot that remembered its
// writer by address would dangle in every other process mapping the segment.
#pragma once

#include <atomic>
#include <cstdint>

namespace amlint_testdata {

struct Writer;

// AML_SHM_REGION_BEGIN
struct BadPlacedSlot {
  std::atomic<std::uint64_t> tag;  // fine: atomics place in shm
  Writer* writer;                  // VIOLATION: raw pointer member
};
// AML_SHM_REGION_END

}  // namespace amlint_testdata
