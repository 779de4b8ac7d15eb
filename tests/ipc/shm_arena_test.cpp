// ShmArena: create/seal/attach lifecycle, the deterministic-replay
// contract (verify_replay catches layout drift), and the superblock's
// config-hash/ABI gate. All "cross-process" checks here run two arenas in
// one process — the segment is real shm either way, and the fork tests in
// shm_fork_test.cpp cover genuinely separate address spaces.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "aml/ipc/offset_ptr.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "shm_test_segment.hpp"

namespace aml::ipc {
namespace {

using namespace shm_test;

TEST(ShmIpcArena, CreateSealAttachSharesWords) {
  ScopedSegment seg("arena");
  std::string error;

  auto creator = ShmArena::create(seg.name, 1 << 16, /*config_hash=*/42,
                                  &error);
  ASSERT_NE(creator, nullptr) << error;
  EXPECT_TRUE(creator->creating());

  auto* words = creator->alloc_array<std::atomic<std::uint64_t>>(8);
  for (int i = 0; i < 8; ++i) {
    words[i].store(100 + i, std::memory_order_relaxed);
  }
  creator->seal();

  auto attacher = ShmArena::attach(seg.name, 42, &error);
  seg.unlink();
  ASSERT_NE(attacher, nullptr) << error;
  EXPECT_FALSE(attacher->creating());

  // Replay the identical allocation (no stores) and verify alignment.
  auto* replica = attacher->alloc_array<std::atomic<std::uint64_t>>(8);
  ASSERT_TRUE(attacher->verify_replay(&error)) << error;

  // The replica resolves to the creator's live objects: reads see the
  // creator's stores, and a store through one mapping is visible in the
  // other (distinct mapping bases, same physical pages).
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(replica[i].load(std::memory_order_relaxed),
              static_cast<std::uint64_t>(100 + i));
  }
  replica[3].store(777, std::memory_order_relaxed);
  EXPECT_EQ(words[3].load(std::memory_order_relaxed), 777u);
  EXPECT_NE(creator->base(), attacher->base());
}

TEST(ShmIpcArena, VerifyReplayCatchesLayoutDrift) {
  ScopedSegment seg("arena-drift");
  std::string error;

  auto creator = ShmArena::create(seg.name, 1 << 16, 7, &error);
  ASSERT_NE(creator, nullptr) << error;
  creator->alloc_array<std::uint64_t>(16);
  creator->seal();

  auto attacher = ShmArena::attach(seg.name, 7, &error);
  seg.unlink();
  ASSERT_NE(attacher, nullptr) << error;
  attacher->alloc_array<std::uint64_t>(17);  // one word of drift
  EXPECT_FALSE(attacher->verify_replay(&error));
  EXPECT_NE(error.find("replay mismatch"), std::string::npos) << error;
}

TEST(ShmIpcArena, AttachRejectsConfigHashMismatch) {
  ScopedSegment seg("arena-hash");
  std::string error;

  auto creator = ShmArena::create(seg.name, 1 << 16, 1234, &error);
  ASSERT_NE(creator, nullptr) << error;
  creator->seal();

  auto attacher = ShmArena::attach(seg.name, 9999, &error);
  seg.unlink();
  EXPECT_EQ(attacher, nullptr);
  EXPECT_NE(error.find("config hash"), std::string::npos) << error;
}

TEST(ShmIpcArena, AttachMissingSegmentFails) {
  std::string error;
  auto attacher =
      ShmArena::attach(unique_segment_name("arena-missing"), 0, &error);
  EXPECT_EQ(attacher, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ShmIpcArena, AttachTimesOutOnUnsealedSegment) {
  ScopedSegment seg("arena-unsealed");
  std::string error;

  auto creator = ShmArena::create(seg.name, 1 << 16, 5, &error);
  ASSERT_NE(creator, nullptr) << error;
  // No seal(): an attacher must not observe the half-built segment.
  auto attacher = ShmArena::attach(seg.name, 5, &error,
                                   std::chrono::milliseconds(50));
  seg.unlink();
  EXPECT_EQ(attacher, nullptr);
  EXPECT_NE(error.find("never sealed"), std::string::npos) << error;
}

/// An attacher racing the creator can shm_open the segment before the
/// creator's ftruncate lands and observe st_size == 0. attach() must wait
/// the race out within its timeout budget, not hard-fail. The "creator" is
/// played by raw syscalls so the zero-size window can be held open
/// deterministically (ShmArena::create sizes the segment immediately).
TEST(ShmIpcArena, AttachWaitsOutCreatorSizingRace) {
  ScopedSegment seg("arena-sizerace");
  constexpr std::uint64_t kBytes = 1 << 16;

  const int fd =
      ::shm_open(seg.name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0);

  std::string error;
  std::unique_ptr<ShmArena> attached;
  std::thread attacher([&] {
    attached = ShmArena::attach(seg.name, /*config_hash=*/7, &error,
                                std::chrono::seconds(10));
  });

  // Hold the segment zero-sized long enough for the attacher to observe it,
  // then size and seal a valid superblock the way create()+seal() would.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(kBytes)), 0);
  void* base = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  auto* sb = reinterpret_cast<Superblock*>(base);
  sb->magic.store(ShmArena::kMagic, std::memory_order_relaxed);
  sb->abi_version.store(ShmArena::kAbiVersion, std::memory_order_relaxed);
  sb->total_bytes.store(kBytes, std::memory_order_relaxed);
  sb->config_hash.store(7, std::memory_order_relaxed);
  sb->ready.store(1, std::memory_order_release);

  attacher.join();
  seg.unlink();
  EXPECT_NE(attached, nullptr) << error;
  ::munmap(base, kBytes);
  ::close(fd);
}

TEST(ShmIpcArena, AttachTimesOutOnNeverSizedSegment) {
  ScopedSegment seg("arena-unsized");
  const int fd =
      ::shm_open(seg.name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0);  // zero-sized forever: the creator "died" pre-ftruncate

  std::string error;
  auto attached = ShmArena::attach(seg.name, 0, &error,
                                   std::chrono::milliseconds(50));
  seg.unlink();
  EXPECT_EQ(attached, nullptr);
  EXPECT_NE(error.find("unsized"), std::string::npos) << error;
  ::close(fd);
}

TEST(ShmIpcArena, CreateRefusesExistingName) {
  ScopedSegment seg("arena-dup");
  std::string error;

  auto first = ShmArena::create(seg.name, 1 << 16, 0, &error);
  ASSERT_NE(first, nullptr) << error;
  auto second = ShmArena::create(seg.name, 1 << 16, 0, &error);
  seg.unlink();
  EXPECT_EQ(second, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ShmIpcArena, AllocRespectsAlignment) {
  std::string error;
  auto arena = create_unlinked<ShmArena>("arena-align", 1 << 16, 0, &error);
  ASSERT_NE(arena, nullptr) << error;

  arena->alloc_offset(1, 1);  // misalign the cursor on purpose
  const std::uint64_t off = arena->alloc_offset(64, 64);
  EXPECT_EQ(off % 64, 0u);
  struct alignas(32) Wide {
    std::uint64_t a[4];
  };
  auto* w = arena->alloc_array<Wide>(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % alignof(Wide), 0u);
}

TEST(ShmIpcOffsetPtr, RoundTripsThroughDifferentBases) {
  ScopedSegment seg("arena-offptr");
  std::string error;

  auto creator = ShmArena::create(seg.name, 1 << 16, 3, &error);
  ASSERT_NE(creator, nullptr) << error;
  auto* value = creator->alloc_array<std::uint64_t>(1);
  auto* slot = creator->alloc_array<offset_ptr<std::uint64_t>>(1);
  *value = 0xBEEF;
  *slot = offset_ptr<std::uint64_t>::from(creator->base(), value);
  creator->seal();

  auto attacher = ShmArena::attach(seg.name, 3, &error);
  seg.unlink();
  ASSERT_NE(attacher, nullptr) << error;
  attacher->alloc_array<std::uint64_t>(1);
  auto* slot_replica = attacher->alloc_array<offset_ptr<std::uint64_t>>(1);
  ASSERT_TRUE(attacher->verify_replay(&error)) << error;

  // The stored offset resolves correctly against *either* mapping base.
  EXPECT_EQ(slot_replica->at(attacher->base()), 0xBEEFu);
  EXPECT_EQ(slot->at(creator->base()), 0xBEEFu);
  EXPECT_EQ(slot_replica->off, slot->off);

  offset_ptr<std::uint64_t> null_ptr;
  EXPECT_TRUE(null_ptr.null());
  EXPECT_EQ(null_ptr.get(attacher->base()), nullptr);
}

TEST(ShmIpcOffsetPtr, SpanIndexesElements) {
  std::string error;
  auto arena = create_unlinked<ShmArena>("arena-offspan", 1 << 16, 0, &error);
  ASSERT_NE(arena, nullptr) << error;

  auto* elems = arena->alloc_array<std::uint64_t>(4);
  for (std::uint64_t i = 0; i < 4; ++i) elems[i] = i * 10;
  offset_span<std::uint64_t> span;
  span.off = arena->to_offset(elems);
  span.count = 4;
  EXPECT_EQ(span.size(), 4u);
  EXPECT_EQ(span.at(arena->base(), 0), 0u);
  EXPECT_EQ(span.at(arena->base(), 3), 30u);
}

}  // namespace
}  // namespace aml::ipc
