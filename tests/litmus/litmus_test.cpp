// Litmus harness for the happens-before edge manifest (tools/edges.toml).
//
// One test per manifest edge, named after its `litmus` key, each exercising
// the edge's two-sided idiom with a PLAIN (non-atomic) payload crossing it.
// The payload is the oracle: if the edge under-synchronized — a release
// missing, an acquire demoted to relaxed — ThreadSanitizer reports the
// payload access as a data race *by happens-before construction*, whatever
// the actual interleaving did (TSan models the orders the code names, not
// the hardware's accidental kindness). The CI tsan job runs this whole
// binary (suite names match its Litmus filter); the plain build runs it too
// as a native stress smoke.
//
// Component edges run the real component (lock, table, registry, arena);
// the cross-process ipc word protocols whose endpoints are private members
// are reproduced op-for-op with the same memory orders as the tagged sites
// — the comments name the file/function each shape mirrors.
//
// tests/litmus/broken_peterson.cpp and broken_mutex.cpp are the negative
// controls: deliberately under-ordered classics that MUST fail under TSan
// (WILL_FAIL ctest entries in the sanitizer build).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "aml/core/abortable_lock.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/ipc/shm_arena.hpp"
#include "aml/model/native.hpp"
#include "aml/pal/rng.hpp"
#include "aml/pal/threading.hpp"
#include "aml/table/named_table.hpp"
#include "aml/table/thread_registry.hpp"

namespace aml {
namespace {

// ---- model.native.carrier --------------------------------------------------
// The generic write_rel/read_acq message-passing pair every concrete edge
// lowers through (model/native.hpp ordered vocabulary).
TEST(LitmusModelNativeCarrier, MessagePassingPublishesPayload) {
  constexpr int kRounds = 2000;
  model::NativeModel m(2);
  auto* flags = m.alloc(kRounds, 0);
  std::vector<std::uint64_t> payload(kRounds, 0);  // plain: TSan oracle
  pal::run_threads(2, [&](std::uint32_t t) {
    if (t == 0) {
      for (int i = 0; i < kRounds; ++i) {
        payload[i] = static_cast<std::uint64_t>(i) * 3 + 1;
        m.write_rel(0, flags[i], 1);
      }
    } else {
      for (int i = 0; i < kRounds; ++i) {
        while (m.read_acq(1, flags[i]) == 0) {
        }
        EXPECT_EQ(payload[i], static_cast<std::uint64_t>(i) * 3 + 1);
      }
    }
  });
}

// ---- core.abort_signal -----------------------------------------------------
// Raiser's pre-raise writes must be visible to a waiter that aborts out of
// a spin on the signal (core/abortable_lock.hpp raise / model wait stop).
TEST(LitmusCoreAbortSignal, RaisePublishesReason) {
  model::NativeModel m(2);
  auto* never = m.alloc(1, 0);  // nobody ever grants; only the abort fires
  AbortSignal sig;
  std::uint64_t reason = 0;  // plain: written before raise, read after stop
  pal::run_threads(2, [&](std::uint32_t t) {
    if (t == 0) {
      reason = 0xabcd;
      sig.raise();
    } else {
      auto outcome =
          m.wait(1, *never, [](std::uint64_t v) { return v != 0; },
                 sig.flag());
      ASSERT_TRUE(outcome.stopped);
      EXPECT_EQ(reason, 0xabcdu);
    }
  });
}

// ---- oneshot.grant ---------------------------------------------------------
// The CC hand-off: granter's critical section happens-before the grantee's
// (core/oneshot.hpp signal_next write_rel -> enter wait).
TEST(LitmusOneshotGrant, HandoffPublishesCriticalSection) {
  constexpr std::uint32_t kN = 8;
  model::NativeModel m(kN);
  core::OneShotLock<model::NativeModel> lock(m, kN, 4);
  std::uint64_t payload = 0;  // plain: only ever touched inside the CS
  pal::run_threads(kN, [&](std::uint32_t t) {
    auto r = lock.enter(t, nullptr);
    ASSERT_TRUE(r.acquired);
    ++payload;
    lock.exit(t);
  });
  EXPECT_EQ(payload, kN);
}

// ---- oneshot.dsm_wake ------------------------------------------------------
// The DSM published-spin-bit wake after the seq_cst Dekker pair
// (core/oneshot.hpp DSM signal_next write_rel -> enter wait).
TEST(LitmusOneshotDsmWake, HandoffPublishesCriticalSection) {
  constexpr std::uint32_t kN = 8;
  model::NativeModel m(kN);
  core::OneShotLockDsm<model::NativeModel> lock(m, kN, 4, kN);
  std::uint64_t payload = 0;
  pal::run_threads(kN, [&](std::uint32_t t) {
    auto r = lock.enter(t, nullptr);
    ASSERT_TRUE(r.acquired);
    ++payload;
    lock.exit(t);
  });
  EXPECT_EQ(payload, kN);
}

// ---- longlived.spn_switch --------------------------------------------------
// Instance switching in the long-lived transformation: the whole production
// stack under churn; every passage crosses cleanup's go := 1 release
// (core/longlived.hpp cleanup write_rel -> enter wait).
TEST(LitmusLonglivedSpnSwitch, SwitchPublishesCriticalSection) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kRounds = 300;
  AbortableLock lock(LockConfig{.max_threads = kThreads});
  std::uint64_t payload = 0;  // plain: only ever touched inside the CS
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    for (int i = 0; i < kRounds; ++i) {
      lock.enter(t);
      ++payload;
      lock.exit(t);
    }
  });
  EXPECT_EQ(payload, std::uint64_t{kThreads} * kRounds);
}

// ---- spinpool.pin_publish --------------------------------------------------
// Abort storms force spin-node pinning and batched reclamation
// (core/spin_pool.hpp publish_pin write_rel -> reclaim read_acq). The
// reclaim scan runs inside alloc, so churn with aborts drives both sides.
TEST(LitmusSpinpoolPinPublish, AbortChurnNeverRacesReclaim) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kRounds = 400;
  AbortableLock lock(LockConfig{.max_threads = kThreads, .tree_width = 2});
  std::uint64_t payload = 0;
  std::atomic<std::uint64_t> completed{0};
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    pal::Xoshiro256 rng(t * 97 + 13);
    AbortSignal sig;
    for (int i = 0; i < kRounds; ++i) {
      sig.reset();
      if (rng.chance_ppm(300000)) sig.raise();
      if (lock.enter(t, sig)) {
        ++payload;
        lock.exit(t);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(payload, completed.load());
  EXPECT_GT(payload, 0u);
}

// ---- table.gen_publish / table.resize_guard / table.gen_quiesce ------------
// One churn harness, three edges: per-key plain payload counters are the
// oracle for generation hand-off (a lost edge shows as a TSan race on
// payload[key] across a resize), concurrent sessions force the resizing_
// guard, and live stat probes cross the quiescence words.
std::uint64_t table_churn(std::uint32_t threads, std::uint32_t keys,
                          int rounds, bool probe_stats) {
  table::NamedLockTable table(
      {.max_threads = threads + 1, .stripes = 2});
  std::vector<std::uint64_t> payload(keys, 0);  // plain, per-key, CS-only
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  pal::run_threads(threads + 1, [&](std::uint32_t t) {
    if (t == threads) {
      // Probe thread: crosses gen_publish (cur()) and gen_quiesce
      // (pins/retired) from outside any passage.
      while (!stop.load(std::memory_order_acquire)) {
        if (probe_stats) {
          (void)table.peak_inflight();
          (void)table.stripe_stats(0);
        }
      }
      return;
    }
    pal::Xoshiro256 rng(t * 41 + 7);
    auto session = table.open_session();
    for (int i = 0; i < rounds; ++i) {
      const std::uint64_t key = rng.next() % keys;
      auto guard = session.acquire(key);
      ++payload[key];
      total.fetch_add(1, std::memory_order_relaxed);
    }
    stop.store(true, std::memory_order_release);
  });
  std::uint64_t sum = 0;
  for (const std::uint64_t p : payload) sum += p;
  EXPECT_EQ(sum, total.load());
  return sum;
}

TEST(LitmusTableGenPublish, GrowthPublishesGenerations) {
  EXPECT_EQ(table_churn(4, 64, 500, false), 4u * 500u);
}

TEST(LitmusTableResizeGuard, ConcurrentGrowersSerialize) {
  EXPECT_EQ(table_churn(6, 128, 400, false), 6u * 400u);
}

TEST(LitmusTableGenQuiesce, StatProbesNeverRaceDrain) {
  EXPECT_EQ(table_churn(4, 32, 400, true), 4u * 400u);
}

// ---- table.tid_lease -------------------------------------------------------
// Recycled dense-id hand-off (table/thread_registry.hpp release fetch_and
// -> try_lease CAS): per-id plain scratch must never race across recycles.
TEST(LitmusTableTidLease, RecycledIdHandsOffScratch) {
  constexpr std::uint32_t kSlots = 3;  // fewer slots than threads: recycling
  constexpr std::uint32_t kThreads = 6;
  table::ThreadRegistry reg(kSlots);
  std::vector<std::uint64_t> scratch(kSlots, 0);  // plain, per-id, CS-only
  std::atomic<std::uint64_t> leases{0};
  pal::run_threads(kThreads, [&](std::uint32_t) {
    for (int i = 0; i < 500; ++i) {
      const std::uint32_t id = reg.try_lease();
      if (id == table::ThreadRegistry::kNoId) continue;
      ++scratch[id];
      leases.fetch_add(1, std::memory_order_relaxed);
      reg.release(id);
    }
  });
  std::uint64_t sum = 0;
  for (const std::uint64_t s : scratch) sum += s;
  EXPECT_EQ(sum, leases.load());
}

// ---- ipc.lease_word --------------------------------------------------------
// The registry's lease-word protocol, op-for-op (ipc/process_registry.hpp
// try_lease claim CAS acq_rel / release store release): claiming a slot
// must import everything its previous owner did under the lease.
TEST(LitmusIpcLeaseWord, ClaimImportsPreviousOwner) {
  constexpr std::uint32_t kSlots = 2;
  constexpr std::uint32_t kThreads = 4;
  struct Slot {
    std::atomic<std::uint64_t> word{0};  // 0 free, else owner nonce
    std::uint64_t footprint = 0;         // plain, owned under the lease
  };
  std::vector<Slot> slots(kSlots);
  std::atomic<std::uint64_t> grants{0};
  pal::run_threads(kThreads, [&](std::uint32_t t) {
    for (int i = 0; i < 600; ++i) {
      for (std::uint32_t s = 0; s < kSlots; ++s) {
        std::uint64_t expect = 0;
        // Claim: acq_rel CAS, as try_lease's state transition.
        if (slots[s].word.compare_exchange_strong(
                expect, t + 1, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          ++slots[s].footprint;
          grants.fetch_add(1, std::memory_order_relaxed);
          // Release: release store, as release()'s free transition.
          slots[s].word.store(0, std::memory_order_release);
          break;
        }
      }
    }
  });
  std::uint64_t sum = 0;
  for (Slot& s : slots) sum += s.footprint;
  EXPECT_EQ(sum, grants.load());
}

// ---- ipc.lease_identity ----------------------------------------------------
// Identity publication order (ipc/process_registry.hpp publish_identity):
// os_start released strictly before os_pid; readers acquire pid-first, so a
// visible pid always carries its start time.
TEST(LitmusIpcLeaseIdentity, PidNeverVisibleWithoutStart) {
  constexpr int kRounds = 2000;
  std::atomic<std::uint64_t> os_pid{0};
  std::atomic<std::uint64_t> os_start{0};
  std::vector<std::uint64_t> blob(kRounds, 0);  // plain identity payload
  pal::run_threads(2, [&](std::uint32_t t) {
    if (t == 0) {
      for (int i = 0; i < kRounds; ++i) {
        blob[i] = i + 1;
        os_start.store(i + 1, std::memory_order_release);
        os_pid.store(i + 1, std::memory_order_release);
      }
    } else {
      std::uint64_t last = 0;
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t pid = os_pid.load(std::memory_order_acquire);
        if (pid <= last) continue;
        last = pid;
        EXPECT_GE(os_start.load(std::memory_order_acquire), pid);
        EXPECT_EQ(blob[pid - 1], pid);
      }
    }
  });
}

// ---- ipc.arena_seal --------------------------------------------------------
// The real arena: every pre-seal byte the creator wrote must be visible to
// an attacher that observed ready == 1 (ipc/shm_arena.hpp seal -> attach).
TEST(LitmusIpcArenaSeal, AttachSeesAllPreSealWrites) {
  static std::atomic<int> counter{0};
  const std::string name = "/aml-litmus-seal-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(counter.fetch_add(1));
  constexpr std::size_t kWords = 64;
  pal::run_threads(2, [&](std::uint32_t t) {
    if (t == 0) {
      std::string error;
      auto creator = ipc::ShmArena::create(name, 1 << 16, 99, &error);
      ASSERT_NE(creator, nullptr) << error;
      auto* words = creator->alloc_array<std::uint64_t>(kWords);
      for (std::size_t i = 0; i < kWords; ++i) {
        words[i] = i * 7 + 1;  // plain pre-seal writes
      }
      creator->seal();
    } else {
      std::string error;
      std::unique_ptr<ipc::ShmArena> attacher;
      // attach() itself spins on ready (the acquire side); retry while the
      // creator thread has not yet created the segment at all.
      while (attacher == nullptr) {
        attacher = ipc::ShmArena::attach(name, 99, &error);
      }
      auto* words = attacher->alloc_array<std::uint64_t>(kWords);
      ASSERT_TRUE(attacher->verify_replay(&error)) << error;
      for (std::size_t i = 0; i < kWords; ++i) {
        EXPECT_EQ(words[i], i * 7 + 1);
      }
    }
  });
  ipc::ShmArena::unlink(name);
}

// ---- ipc.node_state --------------------------------------------------------
// Spin-node free/issued marks, op-for-op (core/spin_pool.hpp release store of
// kFree -> select's acquire load): an allocator that reads "free" must
// observe the previous owner's reset of the node's go word. The edge matters
// in the arena placement, where the next allocator may be another process.
TEST(LitmusIpcNodeState, FreeMarkPublishesNodeReset) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kThreads = 4;
  struct Node {
    std::atomic<std::uint64_t> state{0};  // 0 free, 1 issued
    std::uint64_t go = 0;                 // plain mirror of the spin word
  };
  std::vector<Node> nodes(kNodes);
  std::atomic<std::uint64_t> issues{0};
  pal::run_threads(kThreads, [&](std::uint32_t) {
    for (int i = 0; i < 600; ++i) {
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        std::uint64_t expect = 0;
        // Select: acquire the free mark (shm_lock select load + claim).
        if (nodes[n].state.compare_exchange_strong(
                expect, 1, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          EXPECT_EQ(nodes[n].go, 0u);  // the free mark implies the reset
          nodes[n].go = 1;
          issues.fetch_add(1, std::memory_order_relaxed);
          nodes[n].go = 0;  // reset…
          // …then commit the free mark (shm_lock commit release store).
          nodes[n].state.store(0, std::memory_order_release);
          break;
        }
      }
    }
  });
  EXPECT_GT(issues.load(), 0u);
}

}  // namespace
}  // namespace aml
