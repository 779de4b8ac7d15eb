// Named shm segments for the ipc tests. Segment names live in a
// kernel-global namespace that outlives the process, so each test segment
// gets a unique name and gives it up as early as it can: right after create
// when nothing attaches by name (create_unlinked), otherwise right after the
// last by-name attach (ScopedSegment::unlink). A mapping outlives its name,
// so the test goes on working, and a test that crashes after that point
// leaves no /aml-test-* entry behind in /dev/shm.
#pragma once

#include <atomic>
#include <string>
#include <utility>

#include <unistd.h>

#include "aml/ipc/shm_arena.hpp"

namespace aml::ipc::shm_test {

/// "/aml-test-<tag>-<os pid>-<n>": unique across concurrently running test
/// binaries and across the tests of one binary.
inline std::string unique_segment_name(const char* tag) {
  static std::atomic<int> counter{0};
  return std::string("/aml-test-") + tag + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter.fetch_add(1));
}

/// `T::create(name, args...)` on a fresh segment that nothing attaches to by
/// name, whose name is unlinked at once (T is ShmArena or ShmNamedLockTable).
template <typename T, typename... Args>
auto create_unlinked(const char* tag, Args&&... args) {
  const std::string name = unique_segment_name(tag);
  auto created = T::create(name, std::forward<Args>(args)...);
  ShmArena::unlink(name);
  return created;
}

/// A segment name for a test that attaches by name. Call unlink() right
/// after the last by-name attach; the destructor unlinks a name still
/// present (an ASSERT that bailed out before unlink(), a segment never made).
class ScopedSegment {
 public:
  explicit ScopedSegment(const char* tag) : name(unique_segment_name(tag)) {}
  ~ScopedSegment() { unlink(); }
  ScopedSegment(const ScopedSegment&) = delete;
  ScopedSegment& operator=(const ScopedSegment&) = delete;

  void unlink() {
    if (!unlinked_) ShmArena::unlink(name);
    unlinked_ = true;
  }

  const std::string name;

 private:
  bool unlinked_ = false;
};

}  // namespace aml::ipc::shm_test
