// aml_replay — replay and explore the registered model-checking workloads.
//
//   aml_replay --list
//       Print the workload registry (name, nprocs, description).
//
//   aml_replay --replay <trace-file>
//       Load an aml-trace-v1 file (as emitted by the explorer on a failing
//       execution or by the scheduler on a fatal liveness violation), rebuild
//       the workload it names from the registry, and drive one execution
//       through exactly the recorded choice sequence. Exit 0 when the replay
//       reproduces the recorded failure (or the trace recorded none and the
//       replay is clean), 3 when it does not reproduce.
//
//   aml_replay --explore <workload> [--dpor] [--bound N] [--max N]
//              [--trace-dir DIR]
//       Run the explorer over a registered workload. Exit 0 when no failing
//       execution was found, 4 when one was (its trace path is printed) —
//       the bound-3 ctests (tools/CMakeLists.txt) are built on this.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "aml/analysis/trace.hpp"
#include "aml/analysis/workloads.hpp"
#include "aml/sched/explorer.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: aml_replay --list\n"
         "       aml_replay --replay <trace-file>\n"
         "       aml_replay --explore <workload> [--dpor] [--bound N]\n"
         "                  [--max N] [--trace-dir DIR]\n";
  return 2;
}

int list_workloads() {
  for (const auto& w : aml::analysis::workload_registry()) {
    std::cout << w.name << " (nprocs=" << static_cast<unsigned>(w.nprocs)
              << ")\n    " << w.description << "\n";
  }
  return 0;
}

int replay(const std::string& path) {
  aml::analysis::TraceFile trace;
  std::string error;
  if (!aml::analysis::load_trace(path, &trace, &error)) {
    std::cerr << "aml_replay: cannot load " << path << ": " << error << "\n";
    return 2;
  }
  const auto* w = aml::analysis::find_workload(trace.workload);
  if (w == nullptr) {
    std::cerr << "aml_replay: trace names unknown workload '" << trace.workload
              << "' (see --list)\n";
    return 2;
  }
  std::cout << "replaying " << path << ": workload=" << trace.workload
            << " nprocs=" << static_cast<unsigned>(trace.nprocs) << " steps="
            << trace.choices.size() << "\n";
  if (!trace.reason.empty()) {
    std::cout << "recorded failure: " << trace.reason << "\n";
  }
  aml::sched::ExploreConfig config;
  config.nprocs = w->nprocs;
  config.workload = w->name;
  config.replay_choices = trace.choices;
  const auto stats = aml::sched::explore(config, w->factory);
  if (stats.failed) {
    std::cout << "replay failed as recorded: " << stats.failure << "\n";
    return 0;
  }
  std::cout << "replay completed cleanly\n";
  return trace.reason.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::string operand;
  aml::sched::ExploreConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list" || arg == "--replay" || arg == "--explore") {
      mode = arg;
      if (arg != "--list") {
        if (i + 1 >= argc) return usage();
        operand = argv[++i];
      }
    } else if (arg == "--dpor") {
      config.reduction = aml::sched::Reduction::kDpor;
    } else if (arg == "--bound" && i + 1 < argc) {
      config.preemption_bound =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--max" && i + 1 < argc) {
      config.max_executions = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-dir" && i + 1 < argc) {
      config.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (mode == "--list") return list_workloads();
  if (mode == "--replay") return replay(operand);
  if (mode != "--explore") return usage();

  const auto* w = aml::analysis::find_workload(operand);
  if (w == nullptr) {
    std::cerr << "aml_replay: unknown workload '" << operand
              << "' (see --list)\n";
    return 2;
  }
  config.nprocs = w->nprocs;
  config.workload = w->name;
  const auto stats = aml::sched::explore(config, w->factory);
  std::cout << "explored " << stats.executions << " execution(s), "
            << stats.decisions_explored << " decision(s)"
            << (config.reduction == aml::sched::Reduction::kDpor
                    ? " [dpor]"
                    : " [unreduced]")
            << (stats.truncated ? " [truncated]" : "") << "\n";
  if (stats.failed) {
    std::cout << "failure at execution " << stats.failing_execution << ": "
              << stats.failure << "\n";
    if (!stats.trace_path.empty()) {
      std::cout << "trace: " << stats.trace_path << "\n";
    }
    return 4;
  }
  std::cout << "no failures\n";
  return 0;
}
