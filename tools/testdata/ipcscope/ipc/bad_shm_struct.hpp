// amlint R5 fixture: deliberate violations of the shm-placement rule, and
// ONLY that rule — every atomic op names its order and nothing here is in a
// hot-path or model-gated directory, so a finding from this file proves R5
// still bites on the ipc/ layer's AML_SHM_REGION markers (testdata/r5scope
// covers the same markers outside ipc/).
//
// Each violation below would be a real cross-process bug: the segment maps
// at a different base in every process, so absolute pointers, references,
// and vtable pointers stored in it dangle everywhere but the writer.
#pragma once

#include <atomic>
#include <cstdint>

namespace amlint_testdata {

// AML_SHM_REGION_BEGIN
struct BadShmNode {
  std::atomic<std::uint64_t> word;  // fine: atomics place in shm
  std::uint64_t* next;              // VIOLATION: raw pointer member
  const std::uint64_t& origin;      // VIOLATION: reference member
  virtual void poke();              // VIOLATION: vtable pointer in shm
};
// AML_SHM_REGION_END

// Outside the markers the same declarations are not R5's business (they are
// ordinary process-local code): no finding may fire here.
struct LocalOnlyNode {
  std::uint64_t* next = nullptr;
  virtual ~LocalOnlyNode() = default;
};

}  // namespace amlint_testdata
