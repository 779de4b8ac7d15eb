// aml_stat — read-only inspector for a cross-process lock-service segment.
//
// Attaches to a live *or orphaned* shm segment (the attach replay verifies
// the layout either way; the configuration is discovered from the segment's
// own ServiceHeader, so no config flags are needed) and renders the state
// the service journals about itself:
//
//   aml_stat <segment>                 one JSON snapshot to stdout
//   aml_stat <segment> --watch [sec]   human-readable refresh loop
//   aml_stat <segment> --trace out.json  Chrome-trace export of the ring
//                                        (open in Perfetto / chrome://tracing)
//   aml_stat <segment> --tail N        ring events to include (default 64)
//
// Post-mortem workflow: a SIGKILLed holder leaves the segment behind (or a
// survivor keeps it alive); `aml_stat <segment>` shows the victim's lease
// state, its last journaled phase per stripe, its final ring events, and —
// once a survivor has swept — the recovery dispatch counters that repaired
// it. aml_stat itself performs no stores: it never leases a pid, never
// touches a lock word, and is safe to point at a production segment.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aml/ipc/shm_table.hpp"
#include "aml/ipc/stat_snapshot.hpp"
#include "aml/obs/shm_metrics.hpp"
#include "aml/obs/trace_export.hpp"

namespace {

using aml::ipc::ShmNamedLockTable;
using aml::ipc::ShmTableConfig;

int usage(const char* argv0, int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << argv0
     << " <segment-name> [--json] [--watch [seconds]] [--trace <out.json>]"
        " [--tail <n>]\n"
        "Read-only inspector for an aml::ipc lock-service shm segment\n"
        "(live or orphaned). Default output is one JSON snapshot.\n";
  return code;
}

void print_watch(std::ostream& os, ShmNamedLockTable& table) {
  const aml::ipc::ShmTableConfig& cfg = table.config();
  aml::obs::ShmMetrics& shm = table.shm_metrics();
  const std::uint64_t now = aml::obs::ShmMetrics::now_ns();

  os << "\033[2J\033[H";  // clear + home
  os << "segment " << table.arena().name() << "   nprocs " << cfg.nprocs
     << "  stripes " << cfg.stripes
     << "  ring " << shm.ring_total() << "/"
     << cfg.ring_capacity << " (" << shm.ring_dropped() << " dropped)\n\n";

  os << "pid  state       os_pid   heartbeat  age_ms   phases\n";
  for (aml::ipc::Pid p = 0; p < cfg.nprocs; ++p) {
    auto& reg = table.registry();
    const auto st = reg.state(p);
    const char* name = "?";
    switch (st) {
      case aml::ipc::ProcessRegistry::kFree: name = "free"; break;
      case aml::ipc::ProcessRegistry::kLive: name = "live"; break;
      case aml::ipc::ProcessRegistry::kRecovering:
        name = "recovering";
        break;
      case aml::ipc::ProcessRegistry::kZombie: name = "zombie"; break;
    }
    os << p << "    " << name;
    for (std::size_t pad = std::strlen(name); pad < 12; ++pad) os << ' ';
    os << reg.os_pid(p) << "\t " << shm.heartbeat(p) << "\t    ";
    const std::uint64_t beat = shm.last_ns(p);
    if (beat != 0 && now > beat) {
      os << (now - beat) / 1'000'000;
    } else {
      os << "-";
    }
    os << "\t    ";
    for (std::uint32_t s = 0; s < table.stripe_count(); ++s) {
      const aml::ipc::Phase ph = table.stripe(s).peek_phase(p);
      if (ph == aml::ipc::kIdle) continue;
      os << "s" << s << ":" << aml::ipc::phase_name(ph) << " ";
    }
    os << "\n";
  }

  const auto totals = shm.totals();
  const auto rec = shm.recovery_totals();
  os << "\nacquisitions " << totals.acquisitions << "   aborts "
     << totals.aborts << "   switches " << totals.instance_switches
     << "\nrecovery: forced_exits " << rec.forced_exits
     << "  complete_grants " << rec.complete_grants << "  forced_aborts "
     << rec.aborts_on_behalf << "  resignals " << rec.resignals
     << "  fa_completed " << rec.fa_completed << "  fa_compensated "
     << rec.fa_compensated << "  zombies " << rec.zombie_retires << "\n";
  const auto sweep = shm.sweep_latency();
  if (sweep.count != 0) {
    os << "sweep latency (ns): count " << sweep.count << "  p50 "
       << sweep.p50 << "  p99 " << sweep.p99 << "\n";
  }
  os.flush();
}

}  // namespace

int main(int argc, char** argv) {
  std::string segment;
  std::string trace_path;
  bool watch = false;
  double watch_seconds = 1.0;
  bool json = false;
  aml::ipc::StatOptions opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(argv[0], 0);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--watch") {
      watch = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        watch_seconds = std::atof(argv[++i]);
        if (watch_seconds <= 0) watch_seconds = 1.0;
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--tail" && i + 1 < argc) {
      opt.ring_tail = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "aml_stat: unknown flag " << arg << "\n";
      return usage(argv[0], 2);
    } else if (segment.empty()) {
      segment = arg;
    } else {
      return usage(argv[0], 2);
    }
  }
  if (segment.empty()) return usage(argv[0], 2);

  // Discover the creator's configuration from the segment itself, then
  // attach with it (the replay re-verifies the layout end to end).
  std::string error;
  ShmTableConfig cfg;
  if (!ShmNamedLockTable::peek_config(segment, &cfg, &error)) {
    std::cerr << "aml_stat: " << error << "\n";
    return 1;
  }
  auto table = ShmNamedLockTable::attach(segment, cfg, &error,
                                         std::chrono::seconds(2));
  if (table == nullptr) {
    std::cerr << "aml_stat: " << error << "\n";
    return 1;
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "aml_stat: cannot write " << trace_path << "\n";
      return 1;
    }
    aml::obs::write_chrome_trace(out,
                                 table->shm_metrics().ring_snapshot());
    std::cerr << "aml_stat: wrote trace to " << trace_path << "\n";
    if (!json && !watch) return 0;
  }

  if (watch) {
    for (;;) {
      print_watch(std::cout, *table);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(watch_seconds * 1000)));
    }
  }

  write_stat_json(std::cout, *table, opt);
  return 0;
}
