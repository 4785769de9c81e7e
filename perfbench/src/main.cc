// perfbench — runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--trace-out <file>]
//
// Prints a human-readable table (metrics, noise diagnostics, failures)
// followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any operation or correctness check failed, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void PrintJson(const perfbench::RunReport& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Half of the 4-vCPU reference host; must be set before the library
  // first sizes its thread pools.
  setenv("GRAPHGEN_THREADS", "2", 1);
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--data-dir") {
      options.data_dir = value();
    } else if (arg == "--trace-out") {
      options.trace_path = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || options.data_dir.empty() || options.seconds < 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --data-dir <dir> [--trace-out <file>]\n");
    return 2;
  }

  const perfbench::RunReport report = perfbench::RunWorkload(options);
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  metric     %-30s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const perfbench::Metric& m : report.diagnostics) {
    std::printf("  diagnostic %-30s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("  FAILED     %s\n", e.c_str());
  }
  PrintJson(report);
  return report.correct() ? 0 : 1;
}
