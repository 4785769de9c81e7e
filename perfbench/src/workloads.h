#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/table.h"

namespace perfbench {

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the run: the timed phase executes a fixed number of operations
  /// derived from this (see TimedOperations), never a wall-clock budget.
  int seconds = 10;
  /// Traced run: spans around every layer call; prints per-layer metrics.
  bool trace = false;
  /// Tiny datasets and few operations with every check on (tests).
  bool smoke = false;
  /// Directory the seeded CSV files are written to and loaded from.
  std::string data_dir;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_path;
};

struct RunReport {
  /// Operations and correctness checks attempted, and how many failed
  /// (returned non-OK or produced a wrong result).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failure descriptions
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Noise diagnostics, printed beside the metrics but never gated.
  std::vector<Metric> diagnostics;
  /// Deterministic fingerprint of the run's inputs and outputs (op
  /// sequence, final graph size, counts); equal seeds give equal values.
  uint64_t fingerprint = 0;
  bool correct() const { return failed == 0; }
};

const std::vector<std::string>& WorkloadNames();

/// Timed operations of one run: requests on the extract workloads, write +
/// read + 3 hit cycles on live_append. A pure function of its arguments.
size_t TimedOperations(const std::string& workload, int seconds, bool smoke);

/// The write half of one live_append cycle: one new order and its three
/// line items.
struct AppendBatch {
  std::vector<graphgen::rel::Row> orders;
  std::vector<graphgen::rel::Row> line_items;
};

/// The seeded write sequence of live_append. New order keys start at
/// `first_orderkey`; customers and parts are drawn from the existing ids.
std::vector<AppendBatch> MakeAppendPlan(uint64_t seed, size_t cycles,
                                        int64_t first_orderkey,
                                        size_t customers, size_t parts);

/// Runs one workload end to end: seeded data → CSV → setup → correctness
/// gate → timed phase. Never throws; failures land in the report.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
