// NamedLockTable demo: a miniature account service.
//
// A pool of worker threads transfers money between named accounts. Every
// transfer locks both account keys atomically (acquire_all: distinct stripes
// in ascending order — deadlock-free), every audit read uses a deadline so a
// slow stripe cannot stall it, and sessions are opened per burst to show the
// thread-id leasing that makes the table usable from pools. At the end the
// demo self-checks conservation of the total balance and prints the
// per-stripe observability rollup (the instrumented flavor gives each stripe
// its own sink). Exits nonzero on any invariant violation, so it doubles as
// an end-to-end integration test.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "aml/amlock.hpp"

using namespace std::chrono_literals;

int main() {
  constexpr std::uint32_t kWorkers = 8;
  constexpr std::uint32_t kAccounts = 24;
  constexpr std::int64_t kInitial = 1000;
  constexpr int kTransfersPerWorker = 400;

  aml::table::ObservedNamedLockTable table(
      {.max_threads = kWorkers, .stripes = 8});
  std::vector<std::int64_t> balance(kAccounts, kInitial);
  std::atomic<std::uint64_t> transfers{0};
  std::atomic<std::uint64_t> audits{0};
  std::atomic<std::uint64_t> audit_timeouts{0};
  std::atomic<bool> negative_seen{false};

  auto account_key = [](std::uint64_t i) {
    return std::string("acct:") + std::to_string(i);
  };

  aml::pal::run_threads(kWorkers, [&](std::uint32_t w) {
    aml::pal::Xoshiro256 rng(w * 2654435761u + 3);
    aml::pal::ZipfDistribution zipf(kAccounts, 0.9);  // hot accounts
    int done = 0;
    while (done < kTransfersPerWorker) {
      // A fresh session per burst: the registry recycles dense ids, the way
      // a pooled executor would use the table.
      auto session = table.open_session();
      const int burst = 1 + static_cast<int>(rng.below(32));
      for (int b = 0; b < burst && done < kTransfersPerWorker; ++b) {
        const std::uint64_t from = zipf(rng);
        std::uint64_t to = zipf(rng);
        if (to == from) to = (to + 1) % kAccounts;
        if (rng.chance_ppm(100000)) {
          // Audit: deadline-bounded single-key read of a hot account.
          const std::uint64_t who = zipf(rng);
          if (auto g = session.try_acquire_for(
                  std::string_view(account_key(who)), 500us)) {
            if (balance[who] + static_cast<std::int64_t>(
                                   kAccounts * kInitial) < 0) {
              negative_seen.store(true);
            }
            audits.fetch_add(1, std::memory_order_relaxed);
          } else {
            audit_timeouts.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        // Transfer: both accounts atomically, budget sliced so a jam cannot
        // stall the worker (deadline-abort as deadlock avoidance).
        std::vector<std::string> keys{account_key(from), account_key(to)};
        std::vector<std::string_view> views{keys[0], keys[1]};
        auto tx = session.try_acquire_all_for(views, 50ms, 2ms);
        if (!tx) continue;  // budget exhausted; drop this transfer
        const std::int64_t amount =
            static_cast<std::int64_t>(rng.below(100));
        balance[from] -= amount;
        balance[to] += amount;
        transfers.fetch_add(1, std::memory_order_relaxed);
        ++done;
      }
    }
  });

  std::int64_t total = 0;
  for (const std::int64_t b : balance) total += b;
  const std::int64_t expected =
      static_cast<std::int64_t>(kAccounts) * kInitial;

  std::printf("workers=%u accounts=%u stripes=%u\n", kWorkers, kAccounts,
              table.stripe_count());
  std::printf("transfers=%llu audits=%llu audit_timeouts=%llu\n",
              static_cast<unsigned long long>(transfers.load()),
              static_cast<unsigned long long>(audits.load()),
              static_cast<unsigned long long>(audit_timeouts.load()));
  std::printf("total balance: %lld (expected %lld)\n",
              static_cast<long long>(total),
              static_cast<long long>(expected));

  std::printf("\nper-stripe rollup (acquisitions / aborts / mean handoff):\n");
  for (std::uint32_t s = 0; s < table.stripe_count(); ++s) {
    const auto totals = table.stripe_metrics(s).totals();
    const aml::obs::LatencyHistogram::Snapshot handoff =
        table.stripe_metrics(s).handoff().snapshot();
    std::printf("  stripe %u: %8llu acq  %8llu abort  %8.1f ticks\n", s,
                static_cast<unsigned long long>(totals.acquisitions),
                static_cast<unsigned long long>(totals.aborts),
                handoff.count != 0 ? handoff.mean : 0.0);
  }

  bool ok = true;
  if (total != expected) {
    std::printf("FAIL: balance not conserved\n");
    ok = false;
  }
  if (negative_seen.load()) {
    std::printf("FAIL: audit observed torn state\n");
    ok = false;
  }
  if (transfers.load() == 0) {
    std::printf("FAIL: no transfer completed\n");
    ok = false;
  }
  if (table.live_sessions() != 0) {
    std::printf("FAIL: leaked sessions\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
