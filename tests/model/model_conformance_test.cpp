// Cross-model conformance: every word space the lock templates run on must
// implement identical *value* semantics for read/write/F&A/CAS/SWAP and wait
// — only the cost accounting and the word allocation differ. Typed tests run
// the same assertions against NativeModel, the two counting models (one
// CountingModel body under the CC and the DSM rule) and ipc::ShmSpace (the
// native word operations over shm-arena words), which is what lets the lock
// templates treat them interchangeably. The suite runs real threads, so CI
// also runs it under TSan.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "aml/ipc/shm_arena.hpp"
#include "aml/ipc/shm_space.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/model/counting_dsm.hpp"
#include "aml/model/native.hpp"
#include "aml/pal/config.hpp"

namespace aml::model {

/// A freshly created, already unlinked arena: the mapping outlives the name,
/// so nothing is left in /dev/shm even if a test aborts.
struct FreshArena {
  FreshArena() {
    static std::atomic<int> counter{0};
    const std::string name = "/aml-test-conformance-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(counter.fetch_add(1));
    std::string error;
    segment = ipc::ShmArena::create(name, 1 << 20, 0, &error);
    ipc::ShmArena::unlink(name);
    AML_ASSERT(segment != nullptr, "conformance arena create failed");
  }
  std::unique_ptr<ipc::ShmArena> segment;
};

/// ipc::ShmSpace owning its arena, constructible from nprocs like a model.
/// Outside the anonymous namespace so its typed-test names carry no spaces.
class OwnedShmSpace : private FreshArena, public ipc::ShmSpace {
 public:
  explicit OwnedShmSpace(Pid nprocs) : ShmSpace(*segment, nprocs) {}
};

namespace {

template <typename M>
class ModelConformance : public ::testing::Test {
 public:
  ModelConformance() : model(4) {}
  M model;
};

using Models = ::testing::Types<NativeModel, CountingCcModel,
                                CountingDsmModel, OwnedShmSpace>;
TYPED_TEST_SUITE(ModelConformance, Models);

TYPED_TEST(ModelConformance, InitialValueVisible) {
  auto* w = this->model.alloc(1, 42);
  EXPECT_EQ(this->model.read(0, *w), 42u);
  EXPECT_EQ(this->model.read(3, *w), 42u);
}

TYPED_TEST(ModelConformance, WriteThenReadAcrossProcesses) {
  auto* w = this->model.alloc(1, 0);
  this->model.write(1, *w, 77);
  EXPECT_EQ(this->model.read(2, *w), 77u);
}

TYPED_TEST(ModelConformance, FaaReturnsPreviousAndAccumulates) {
  auto* w = this->model.alloc(1, 5);
  EXPECT_EQ(this->model.faa(0, *w, 3), 5u);
  EXPECT_EQ(this->model.faa(1, *w, 3), 8u);
  EXPECT_EQ(this->model.read(2, *w), 11u);
}

TYPED_TEST(ModelConformance, FaaWrapsModulo64Bits) {
  auto* w = this->model.alloc(1, ~std::uint64_t{0});
  EXPECT_EQ(this->model.faa(0, *w, 1), ~std::uint64_t{0});
  EXPECT_EQ(this->model.read(0, *w), 0u);
  // Adding -1 (two's complement) decrements.
  this->model.write(0, *w, 10);
  this->model.faa(0, *w, ~std::uint64_t{0});
  EXPECT_EQ(this->model.read(0, *w), 9u);
}

TYPED_TEST(ModelConformance, CasSucceedsOnlyOnMatch) {
  auto* w = this->model.alloc(1, 1);
  EXPECT_FALSE(this->model.cas(0, *w, 2, 9));
  EXPECT_EQ(this->model.read(0, *w), 1u);
  EXPECT_TRUE(this->model.cas(1, *w, 1, 9));
  EXPECT_EQ(this->model.read(0, *w), 9u);
  // Back-to-back CAS chain.
  EXPECT_TRUE(this->model.cas(2, *w, 9, 10));
  EXPECT_FALSE(this->model.cas(3, *w, 9, 11));
}

TYPED_TEST(ModelConformance, SwapReturnsOld) {
  auto* w = this->model.alloc(1, 4);
  EXPECT_EQ(this->model.swap(0, *w, 5), 4u);
  EXPECT_EQ(this->model.swap(1, *w, 6), 5u);
  EXPECT_EQ(this->model.read(2, *w), 6u);
}

TYPED_TEST(ModelConformance, WaitPredAlreadyTrue) {
  auto* w = this->model.alloc(1, 3);
  auto out = this->model.wait(
      0, *w, [](std::uint64_t v) { return v == 3; }, nullptr);
  EXPECT_FALSE(out.stopped);
  EXPECT_EQ(out.value, 3u);
}

TYPED_TEST(ModelConformance, WaitStopsWhenPredFalse) {
  auto* w = this->model.alloc(1, 0);
  std::atomic<bool> stop{true};
  auto out = this->model.wait(
      0, *w, [](std::uint64_t v) { return v != 0; }, &stop);
  EXPECT_TRUE(out.stopped);
}

TYPED_TEST(ModelConformance, WaitWakesOnConcurrentWrite) {
  auto* w = this->model.alloc(1, 0);
  std::thread waiter([&] {
    auto out = this->model.wait(
        0, *w, [](std::uint64_t v) { return v == 2; }, nullptr);
    EXPECT_EQ(out.value, 2u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  this->model.write(1, *w, 2);
  waiter.join();
}

TYPED_TEST(ModelConformance, WaitEitherSemantics) {
  auto* a = this->model.alloc(1, 1);
  auto* b = this->model.alloc(1, 1);
  std::thread waiter([&] {
    auto out = this->model.wait_either(
        0, *a, [](std::uint64_t v) { return v == 0; }, *b,
        [](std::uint64_t v) { return v == 9; }, nullptr);
    EXPECT_FALSE(out.stopped);
    EXPECT_EQ(out.value2, 9u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  this->model.write(1, *b, 9);
  waiter.join();
}

TYPED_TEST(ModelConformance, ContiguousAllocation) {
  auto* words = this->model.alloc(64, 6);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(this->model.read(0, words[i]), 6u);
    this->model.write(0, words[i], static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(this->model.read(1, words[i]), static_cast<std::uint64_t>(i));
  }
}

TYPED_TEST(ModelConformance, ConcurrentFaaLinearizes) {
  auto* w = this->model.alloc(1, 0);
  std::vector<std::thread> threads;
  for (Pid p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < 2000; ++i) this->model.faa(p, *w, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(this->model.read(0, *w), 8000u);
}

}  // namespace
}  // namespace aml::model
