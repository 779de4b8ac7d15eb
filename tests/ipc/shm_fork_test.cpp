// Multi-process integration: fork() real workers against one shm segment.
// Covers the acceptance scenarios end-to-end: two processes cooperating on
// the same named key, a SIGKILLed critical-section holder recovered by a
// survivor in one bounded sweep, and a SIGKILLed *waiter* driven through the
// forced-abort arm.
//
// Fork discipline: the parent forks before constructing any table (a table
// owns a TimerWheel thread; forking a multithreaded process risks inheriting
// a held allocator lock), creates the segment afterwards, and the child
// attaches its own replica once signalled over a pipe. Children communicate
// results purely via exit codes and pipe bytes — no gtest in the child.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "aml/ipc/shm_table.hpp"
#include "aml/ipc/stat_snapshot.hpp"
#include "aml/obs/shm_metrics.hpp"
#include "aml/obs/trace_export.hpp"

namespace aml::ipc {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kKey = 11;

std::string unique_name(const char* tag) {
  static int counter = 0;
  return std::string("/aml-test-fork-") + tag + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++);
}

ShmTableConfig fork_config() {
  ShmTableConfig cfg;
  cfg.nprocs = 4;
  cfg.stripes = 1;  // single stripe: every key contends, phases are at [0]
  return cfg;
}

bool read_byte(int fd, char expect) {
  char b = 0;
  ssize_t r;
  do {
    r = ::read(fd, &b, 1);
  } while (r < 0 && errno == EINTR);
  return r == 1 && b == expect;
}

void write_byte(int fd, char b) {
  ssize_t r;
  do {
    r = ::write(fd, &b, 1);
  } while (r < 0 && errno == EINTR);
}

bool read_u64(int fd, std::uint64_t* out) {
  unsigned char buf[8];
  std::size_t got = 0;
  while (got < sizeof(buf)) {
    const ssize_t r = ::read(fd, buf + got, sizeof(buf) - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  *out = v;
  return true;
}

void write_u64(int fd, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  std::size_t put = 0;
  while (put < sizeof(buf)) {
    const ssize_t r = ::write(fd, buf + put, sizeof(buf) - put);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return;
    put += static_cast<std::size_t>(r);
  }
}

struct Pipes {
  int to_child[2];
  int to_parent[2];
  Pipes() {
    AML_ASSERT(::pipe(to_child) == 0 && ::pipe(to_parent) == 0,
               "pipe() failed");
  }
  ~Pipes() {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(to_parent[0]);
    ::close(to_parent[1]);
  }
};

/// Child body: attach once the parent signals the segment exists, lease a
/// pid, then run `action` with the session. Non-zero returns diagnose which
/// step failed (surfaced through the exit status).
template <typename Action>
int child_main(const std::string& seg, int rfd, int wfd, Action action) {
  ::alarm(30);  // backstop: never outlive a wedged/failed parent
  if (!read_byte(rfd, 'C')) return 10;
  std::string error;
  auto table = ShmNamedLockTable::attach(seg, fork_config(), &error);
  if (table == nullptr) return 11;
  auto session = table->open_session();
  if (!session.has_value()) return 12;
  return action(*table, *session, rfd, wfd);
}

TEST(ShmIpcFork, TwoProcessesCooperateOnOneKey) {
  const std::string seg = unique_name("coop");
  Pipes p;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int rc = child_main(
        seg, p.to_child[0], p.to_parent[1],
        [](ShmNamedLockTable&, ShmNamedLockTable::Session& session, int rfd,
           int wfd) {
          auto guard = session.acquire(kKey);
          write_byte(wfd, 'H');  // holding
          if (!read_byte(rfd, 'G')) return 13;
          guard.release();
          return 0;
        });
    ::_exit(rc);
  }

  std::string error;
  auto table = ShmNamedLockTable::create(seg, fork_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  write_byte(p.to_child[1], 'C');
  ASSERT_TRUE(read_byte(p.to_parent[0], 'H'));

  auto session = table->open_session();
  ASSERT_TRUE(session.has_value());
  // The child holds the key from its own address space: a bounded attempt
  // here must time out against it.
  EXPECT_FALSE(session->try_acquire_for(kKey, 50ms).has_value());

  write_byte(p.to_child[1], 'G');
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The child's orderly release handed the lock over cleanly.
  auto guard = session->try_acquire_for(kKey, 2s);
  EXPECT_TRUE(guard.has_value());
  ShmNamedLockTable::unlink(seg);
}

TEST(ShmIpcFork, SigkilledHolderRecoveredInOneSweep) {
  const std::string seg = unique_name("kill");
  Pipes p;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int rc = child_main(
        seg, p.to_child[0], p.to_parent[1],
        [](ShmNamedLockTable&, ShmNamedLockTable::Session& session, int,
           int wfd) {
          auto guard = session.acquire(kKey);
          write_byte(wfd, 'H');
          for (;;) ::pause();  // die holding the critical section
          return 15;           // unreachable
        });
    ::_exit(rc);
  }

  std::string error;
  auto table = ShmNamedLockTable::create(seg, fork_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  write_byte(p.to_child[1], 'C');
  ASSERT_TRUE(read_byte(p.to_parent[0], 'H'));

  // Identify the victim's dense pid before it dies so the post-mortem
  // assertions can name it.
  Pid victim = fork_config().nprocs;
  for (Pid q = 0; q < fork_config().nprocs; ++q) {
    if (table->registry().state(q) == ProcessRegistry::kLive &&
        table->registry().os_pid(q) == static_cast<std::uint64_t>(child)) {
      victim = q;
    }
  }
  ASSERT_LT(victim, fork_config().nprocs);

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);  // reap: pid now ESRCH

  // Post-mortem, pre-sweep: the victim took its heap to the grave, but the
  // segment still journals its last phase and its final ring events — this
  // is the aml_stat snapshot of the orphaned segment, and the acceptance
  // scenario of the observability PR.
  {
    std::ostringstream pre;
    write_stat_json(pre, *table);
    EXPECT_NE(pre.str().find("\"phase\":\"holding\""), std::string::npos);
  }
  bool victim_granted_seen = false;
  for (const obs::Event& e : table->shm_metrics().ring_snapshot()) {
    if (e.kind == obs::EventKind::kGranted && e.pid == victim &&
        e.writer_os_pid == static_cast<std::uint64_t>(child)) {
      victim_granted_seen = true;  // written by the now-dead process itself
    }
  }
  EXPECT_TRUE(victim_granted_seen);

  auto survivor = table->open_session();
  ASSERT_TRUE(survivor.has_value());
  // Bounded recovery: a single sweep finds, repairs and reclaims the dead
  // holder — no retries, no waiting on the (gone) victim.
  EXPECT_EQ(survivor->recover_dead(), 1u);
  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.recovered_pids, 1u);
  EXPECT_EQ(stats.forced_exits, 1u);
  EXPECT_EQ(stats.zombie_pids, 0u);

  // Exactly one typed forced-exit event, victim pid attached, and the
  // matching dispatch counter — readable from the segment by any process.
  std::size_t forced_events = 0;
  for (const obs::Event& e : table->shm_metrics().ring_snapshot()) {
    if (e.kind == obs::EventKind::kForcedExit) {
      ++forced_events;
      EXPECT_EQ(e.victim, victim);
      EXPECT_EQ(e.pid, survivor->id());
    }
  }
  EXPECT_EQ(forced_events, 1u);
  EXPECT_EQ(table->shm_metrics().recovery_totals().forced_exits, 1u);

  // The forced exit freed the critical section for the survivor.
  auto guard = survivor->try_acquire_for(kKey, 2s);
  EXPECT_TRUE(guard.has_value());
  // The recovered passage flowed through the segment sink: the survivor
  // drove the victim's exit plus its own acquisition.
  EXPECT_GE(table->shm_metrics().pid_counters(survivor->id()).acquisitions,
            1u);
  ShmNamedLockTable::unlink(seg);
}

TEST(ShmIpcFork, SigkilledWaiterForcedToAbort) {
  const std::string seg = unique_name("waiter");
  Pipes p;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int rc = child_main(
        seg, p.to_child[0], p.to_parent[1],
        [](ShmNamedLockTable&, ShmNamedLockTable::Session& session, int,
           int wfd) {
          write_byte(wfd, 'W');       // about to enter
          auto guard = session.acquire(kKey);  // blocks: parent holds
          return 14;                  // must never be granted
        });
    ::_exit(rc);
  }

  std::string error;
  auto table = ShmNamedLockTable::create(seg, fork_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  auto holder = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(holder && survivor);
  auto guard = holder->acquire(kKey);

  write_byte(p.to_child[1], 'C');
  ASSERT_TRUE(read_byte(p.to_parent[0], 'W'));

  // Find the child's leased pid (the live slot that is not ours), then wait
  // until its journal shows it inside the one-shot doorway — parked in the
  // spin queue behind our guard — so the kill lands in a journaled window.
  const Pid nprocs = fork_config().nprocs;
  Pid victim = nprocs;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    for (Pid q = 0; q < nprocs; ++q) {
      if (table->registry().state(q) == ProcessRegistry::kLive &&
          table->registry().os_pid(q) ==
              static_cast<std::uint64_t>(child) &&
          table->stripe(0).peek_phase(q) == kDoorway) {
        victim = q;
      }
    }
    if (victim < nprocs) break;
    ::sched_yield();
  }
  ASSERT_LT(victim, nprocs) << "child never reached the doorway";

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // Crash = forced abort: the waiter's queue slot is withdrawn on its
  // behalf while we still hold the lock.
  EXPECT_EQ(survivor->recover_dead(), 1u);
  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.recovered_pids, 1u);
  EXPECT_EQ(stats.forced_aborts, 1u);
  EXPECT_EQ(stats.forced_exits, 0u);
  EXPECT_EQ(stats.zombie_pids, 0u);

  // One typed abort-on-behalf event with the victim pid, and the tracer
  // closes the victim's (never-granted) span forced, annotated with the
  // sweeping executor — the timeline an operator sees in Perfetto.
  std::size_t on_behalf = 0;
  const auto events = table->shm_metrics().ring_snapshot();
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kAbortOnBehalf) {
      ++on_behalf;
      EXPECT_EQ(e.victim, victim);
      EXPECT_EQ(e.pid, survivor->id());
    }
  }
  EXPECT_EQ(on_behalf, 1u);
  EXPECT_EQ(table->shm_metrics().recovery_totals().aborts_on_behalf, 1u);
  bool victim_span_forced_abort = false;
  for (const obs::PassageSpan& s : obs::assemble_passage_spans(events)) {
    if (s.pid == victim && s.closed && s.forced && !s.granted &&
        s.close_kind == obs::EventKind::kAbortOnBehalf &&
        s.recovered_by == survivor->id()) {
      victim_span_forced_abort = true;
    }
  }
  EXPECT_TRUE(victim_span_forced_abort);

  // Our guard was never disturbed; releasing it hands off normally.
  guard.release();
  EXPECT_TRUE(survivor->try_acquire_for(kKey, 2s).has_value());
  ShmNamedLockTable::unlink(seg);
}

TEST(ShmIpcFork, SigkilledGrantedWaiterDrivenThroughCompleteGrant) {
  // The complete-grant arm: the victim dies parked in the doorway, and the
  // hand-off lands *after* its death — the grant stands (it reached the
  // victim's go word) but nobody is alive to acknowledge it. The sweep must
  // complete the grant on the victim's behalf and then exit for it.
  const std::string seg = unique_name("grantee");
  Pipes p;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int rc = child_main(
        seg, p.to_child[0], p.to_parent[1],
        [](ShmNamedLockTable&, ShmNamedLockTable::Session& session, int,
           int wfd) {
          write_byte(wfd, 'W');                // about to enter
          auto guard = session.acquire(kKey);  // blocks: parent holds
          return 14;                           // must never run the CS
        });
    ::_exit(rc);
  }

  std::string error;
  auto table = ShmNamedLockTable::create(seg, fork_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  auto holder = table->open_session();
  auto survivor = table->open_session();
  ASSERT_TRUE(holder && survivor);
  auto guard = holder->acquire(kKey);

  write_byte(p.to_child[1], 'C');
  ASSERT_TRUE(read_byte(p.to_parent[0], 'W'));

  const Pid nprocs = fork_config().nprocs;
  Pid victim = nprocs;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    for (Pid q = 0; q < nprocs; ++q) {
      if (table->registry().state(q) == ProcessRegistry::kLive &&
          table->registry().os_pid(q) ==
              static_cast<std::uint64_t>(child) &&
          table->stripe(0).peek_phase(q) == kDoorway) {
        victim = q;
      }
    }
    if (victim < nprocs) break;
    ::sched_yield();
  }
  ASSERT_LT(victim, nprocs) << "child never reached the doorway";

  // Kill first, release second: the exit's hand-off picks the (now dead)
  // victim as successor and writes its go word — a grant delivered to a
  // corpse, which is exactly the complete-grant recovery window.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  guard.release();

  EXPECT_EQ(survivor->recover_dead(), 1u);
  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.recovered_pids, 1u);
  EXPECT_EQ(stats.forced_exits, 1u);  // complete-grant repairs via an exit
  EXPECT_EQ(stats.forced_aborts, 0u);
  EXPECT_EQ(stats.zombie_pids, 0u);

  // The segment distinguishes the arm: one typed complete-grant event with
  // the victim pid, and a victim span the tracer closes *granted* + forced.
  std::size_t complete_grants = 0;
  const auto events = table->shm_metrics().ring_snapshot();
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kCompleteGrant) {
      ++complete_grants;
      EXPECT_EQ(e.victim, victim);
      EXPECT_EQ(e.pid, survivor->id());
    }
  }
  EXPECT_EQ(complete_grants, 1u);
  EXPECT_EQ(table->shm_metrics().recovery_totals().complete_grants, 1u);
  bool victim_span_completed = false;
  for (const obs::PassageSpan& s : obs::assemble_passage_spans(events)) {
    if (s.pid == victim && s.closed && s.forced && s.granted &&
        s.close_kind == obs::EventKind::kCompleteGrant) {
      victim_span_completed = true;
    }
  }
  EXPECT_TRUE(victim_span_completed);

  // The on-behalf exit freed the lock for the survivor.
  EXPECT_TRUE(survivor->try_acquire_for(kKey, 2s).has_value());
  ShmNamedLockTable::unlink(seg);
}

TEST(ShmIpcFork, ReattachResumesOwnIdentityAfterSigkill) {
  // Restart re-entry: the killed holder's *successor process* (here the
  // parent, standing in for the restarted service) presents the persisted
  // (dense pid, lease token) pair and re-enters through reattach_session —
  // its own passage is resumed/unwound as self-recovery and the SAME dense
  // pid is re-leased to it, rather than a survivor racing it to the sweep.
  const std::string seg = unique_name("reattach");
  Pipes p;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int rc = child_main(
        seg, p.to_child[0], p.to_parent[1],
        [](ShmNamedLockTable&, ShmNamedLockTable::Session& session, int,
           int wfd) {
          // Persist the re-entry identity first (a real service would write
          // it to disk before touching the lock), then die holding.
          write_u64(wfd, session.id());
          write_u64(wfd, session.token());
          auto guard = session.acquire(kKey);
          write_byte(wfd, 'H');
          for (;;) ::pause();  // die holding the critical section
          return 15;           // unreachable
        });
    ::_exit(rc);
  }

  std::string error;
  auto table = ShmNamedLockTable::create(seg, fork_config(), &error);
  ASSERT_NE(table, nullptr) << error;
  write_byte(p.to_child[1], 'C');
  std::uint64_t victim_u64 = 0;
  std::uint64_t token = 0;
  ASSERT_TRUE(read_u64(p.to_parent[0], &victim_u64));
  ASSERT_TRUE(read_u64(p.to_parent[0], &token));
  ASSERT_TRUE(read_byte(p.to_parent[0], 'H'));
  const Pid victim = static_cast<Pid>(victim_u64);
  ASSERT_LT(victim, fork_config().nprocs);

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);  // reap: pid now ESRCH

  // A stale token must not reattach (the lease word wouldn't match).
  EXPECT_FALSE(table->reattach_session(victim, token + 1).has_value());

  auto reattached = table->reattach_session(victim, token);
  ASSERT_TRUE(reattached.has_value());
  EXPECT_EQ(reattached->id(), victim);

  // Self-recovery unwound the dead incarnation's passage (it died holding,
  // so the repair is a forced exit) and produced no zombie.
  const RecoveryStats& stats = table->recovery_stats();
  EXPECT_EQ(stats.reentries, 1u);
  EXPECT_EQ(stats.forced_exits, 1u);
  EXPECT_EQ(stats.zombie_pids, 0u);

  // The registry now binds the dense pid to THIS process under a fresh
  // token, and the segment journals the re-entry as a typed event.
  EXPECT_EQ(table->registry().state(victim), ProcessRegistry::kLive);
  EXPECT_EQ(table->registry().os_pid(victim),
            static_cast<std::uint64_t>(::getpid()));
  EXPECT_NE(reattached->token(), token);
  std::size_t reentry_events = 0;
  for (const obs::Event& e : table->shm_metrics().ring_snapshot()) {
    if (e.kind == obs::EventKind::kReentry) {
      ++reentry_events;
      EXPECT_EQ(e.victim, victim);
    }
  }
  EXPECT_EQ(reentry_events, 1u);

  // The resumed identity is fully functional: the key its previous
  // incarnation died holding is acquirable again by the reattached session.
  EXPECT_TRUE(reattached->try_acquire_for(kKey, 2s).has_value());
  ShmNamedLockTable::unlink(seg);
}

}  // namespace
}  // namespace aml::ipc
