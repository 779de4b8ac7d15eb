// Key hashing and stripe-count rounding: determinism, avalanche sanity, and
// the round_up_pow2 domain fix (the old loop spun forever past 2^31). Also
// the other end of the key -> stripe map: every accessor that takes a raw
// stripe index rejects one past the stripe count instead of reading past
// its array.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include <unistd.h>

#include "aml/ipc/shm_table.hpp"
#include "aml/model/native.hpp"
#include "aml/table/hash.hpp"
#include "aml/table/lock_table.hpp"
#include "aml/table/named_table.hpp"

namespace aml::table {
namespace {

TEST(Hash, IntegerHashIsDeterministicAndMixed) {
  EXPECT_EQ(key_hash(std::uint64_t{42}), key_hash(std::uint64_t{42}));
  EXPECT_NE(key_hash(std::uint64_t{42}), key_hash(std::uint64_t{43}));
  // Low bits must differ for adjacent keys (the stripe map masks low bits).
  int low_bit_diffs = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    if ((key_hash(k) & 0xF) != (key_hash(k + 1) & 0xF)) ++low_bit_diffs;
  }
  EXPECT_GT(low_bit_diffs, 32);
}

TEST(Hash, StringHashMatchesAcrossCalls) {
  EXPECT_EQ(key_hash(std::string_view{"acct:alice"}),
            key_hash(std::string_view{"acct:alice"}));
  EXPECT_NE(key_hash(std::string_view{"acct:alice"}),
            key_hash(std::string_view{"acct:bob"}));
  EXPECT_NE(key_hash(std::string_view{""}),
            key_hash(std::string_view{"a"}));
}

TEST(Hash, RoundUpPow2CoversDomain) {
  EXPECT_EQ(round_up_pow2(1), 1u);
  EXPECT_EQ(round_up_pow2(2), 2u);
  EXPECT_EQ(round_up_pow2(3), 4u);
  EXPECT_EQ(round_up_pow2(5), 8u);
  EXPECT_EQ(round_up_pow2(1023), 1024u);
  EXPECT_EQ(round_up_pow2(1024), 1024u);
  // The values that made the old shift loop spin forever: anything above
  // 2^31 has no uint32_t power-of-two ceiling. The boundary itself is fine.
  EXPECT_EQ(round_up_pow2((1u << 31) - 1), 1u << 31);
  EXPECT_EQ(round_up_pow2(1u << 31), 1u << 31);
  // Compile-time evaluation still works (AML_ASSERT's failure branch is
  // never constant-evaluated on valid input).
  static_assert(round_up_pow2(6) == 8);
}

#if GTEST_HAS_DEATH_TEST
TEST(HashDeathTest, RoundUpPow2RejectsOutOfDomain) {
  EXPECT_DEATH(round_up_pow2(0), "round_up_pow2");
  EXPECT_DEATH(round_up_pow2((1u << 31) + 1), "round_up_pow2");
}

TEST(StripeIndexDeathTest, StripeAccessorsRejectIndexPastStripeCount) {
  model::NativeModel mem(1);
  LockTable<model::NativeModel> table(
      mem, {.max_threads = 1, .stripes = 2, .tree_width = 8});
  ASSERT_EQ(table.stripe_count(), 2u);
  (void)table.stripe_stats(1);  // the last valid index stays fine
  EXPECT_DEATH((void)table.stripe_stats(2), "stripe_stats");
  EXPECT_DEATH(table.set_stripe_metrics(2, nullptr), "set_stripe_metrics");

  // Built inside the child: the named table's timer wheel never runs in
  // the forking parent.
  EXPECT_DEATH(
      {
        ObservedNamedLockTable named({.max_threads = 1, .stripes = 2});
        (void)named.stripe_metrics(2);
      },
      "stripe_metrics");

  const std::string name =
      "/aml-test-stripe-index-" + std::to_string(::getpid());
  ipc::ShmTableConfig cfg;
  cfg.nprocs = 1;
  cfg.stripes = 2;
  std::string error;
  auto shm = ipc::ShmNamedLockTable::create(name, cfg, &error);
  ipc::ShmNamedLockTable::unlink(name);  // the mapping outlives the name
  ASSERT_NE(shm, nullptr) << error;
  ASSERT_EQ(shm->stripe_count(), 2u);
  (void)shm->stripe(1);
  EXPECT_DEATH((void)shm->stripe(2), "stripe index");
}

// auto_grow paces its policy checks by `n % grow_check_interval`, so an
// interval of 0 would divide by zero on the first acquisition; the
// constructor rejects it with a message instead.
TEST(AutoGrowDeathTest, RejectsZeroCheckInterval) {
  EXPECT_DEATH(
      {
        NamedLockTable named({.max_threads = 1,
                              .stripes = 2,
                              .auto_grow = true,
                              .grow_check_interval = 0});
        auto session = named.open_session();
        (void)session.acquire(std::uint64_t{1});
      },
      "grow_check_interval");
}
#endif

}  // namespace
}  // namespace aml::table
