// perfbench_tests — unit tests of the benchmark's own code, plus a smoke
// run of every workload at a tiny size with all correctness checks on.
//
//   perfbench_tests <work-dir>
//
// Exits non-zero on the first failed expectation.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                          \
      ++failures;                                                   \
    }                                                               \
  } while (0)

bool Near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  using namespace perfbench;
  EXPECT(Median({}) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  const std::vector<double> hundred = Range(1, 100);
  EXPECT(Percentile(hundred, 0.9) == 90);
  EXPECT(Percentile(hundred, 0.5) == 50);
  EXPECT(Percentile(hundred, 1.0) == 100);
  EXPECT(Percentile({7}, 0.9) == 7);
  EXPECT(CountAbove(hundred, 90) == 10);
  // Ten samples beyond the p90: reportable; nine: not.
  EXPECT(TailReportable(hundred, 0.9));
  EXPECT(!TailReportable(Range(1, 99), 0.9));
  EXPECT(!TailReportable(Range(1, 50), 0.9));
  // Ties at the p90 value do not count as beyond it.
  std::vector<double> ties(100, 5.0);
  EXPECT(!TailReportable(ties, 0.9));
  EXPECT(!TailReportable({}, 0.9));
}

void TestSelfTimes() {
  using namespace perfbench;
  // root [0,10] with children [1,3] and [2,5] (overlapping) and [8,12]
  // (running past the root): children cover [1,5] and [8,10], 6 ms.
  std::vector<Span> spans = {
      {"request", -1, 1, 0, 10}, {"a", 0, 1, 1, 3},   {"b", 0, 1, 2, 5},
      {"c", 0, 1, 8, 12},        {"a.x", 1, 1, 1.5, 2}, {"request", -1, 2, 20, 24},
      {"a", 5, 2, 20, 23},       {"other", -1, 3, 30, 40}, {"a", 7, 3, 30, 39},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT(Near(self[0], 4));
  EXPECT(Near(self[1], 1.5));  // a minus its child a.x
  EXPECT(Near(self[2], 3));
  EXPECT(Near(self[3], 4));
  EXPECT(Near(self[4], 0.5));

  const LayerTimes layers = CollectLayerTimes(spans, "request");
  EXPECT(layers.roots == 2);
  EXPECT(Near(layers.root_total_ms, 14));
  // Descendant self times: 1.5 + 3 + 4 + 0.5 in request 1, 3 in request 2.
  EXPECT(Near(layers.accounted_total_ms, 12));
  EXPECT(layers.per_request_ms.at("a").size() == 2);
  EXPECT(Near(layers.per_request_ms.at("a")[0], 1.5));
  EXPECT(Near(layers.per_request_ms.at("a")[1], 3));
  EXPECT(layers.per_request_ms.count("other") == 0);
}

void TestTracerNesting() {
  using namespace perfbench;
  Tracer tracer(true);
  {
    ScopedSpan root(tracer, "request", 7);
    { ScopedSpan child(tracer, "layer", 7); }
    { ScopedSpan child(tracer, "layer2", 7); }
  }
  { ScopedSpan next(tracer, "request", 8); }
  const auto& spans = tracer.spans();
  EXPECT(spans.size() == 4);
  EXPECT(spans[0].parent == -1);
  EXPECT(spans[1].parent == 0 && spans[2].parent == 0);
  EXPECT(spans[3].parent == -1 && spans[3].request == 8);
  for (const Span& s : spans) EXPECT(s.end_ms >= s.start_ms);

  Tracer off(false);
  { ScopedSpan root(off, "request", 1); }
  EXPECT(off.spans().empty());
}

double MetricValue(const perfbench::RunReport& r, const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return -1;
}

void TestSeedDeterminism(const std::string& dir) {
  using namespace perfbench;
  const auto a = MakeAppendPlan(11, 20, 100, 50, 30);
  const auto b = MakeAppendPlan(11, 20, 100, 50, 30);
  const auto c = MakeAppendPlan(12, 20, 100, 50, 30);
  EXPECT(a.size() == 20);
  bool same = true, differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].orders == b[i].orders && a[i].line_items == b[i].line_items;
    differs = differs || a[i].line_items != c[i].line_items;
    EXPECT(a[i].orders.size() == 1 && a[i].line_items.size() == 3);
  }
  EXPECT(same);
  EXPECT(differs);
  EXPECT(TimedOperations("coauthor_exp", 10, false) ==
         TimedOperations("coauthor_exp", 10, false));
  EXPECT(TimedOperations("copurchase_auto", 1, false) >= 100);

  for (const std::string workload : {"copurchase_exp", "live_append"}) {
    RunOptions options;
    options.workload = workload;
    options.smoke = true;
    options.seed = 5;
    options.data_dir = dir + "/determinism";
    const RunReport first = RunWorkload(options);
    const RunReport second = RunWorkload(options);
    options.seed = 6;
    const RunReport other = RunWorkload(options);
    EXPECT(first.correct() && second.correct() && other.correct());
    EXPECT(first.fingerprint == second.fingerprint);
    EXPECT(first.attempted == second.attempted);
    EXPECT(MetricValue(first, "graph_mb") == MetricValue(second, "graph_mb"));
    EXPECT(first.fingerprint != other.fingerprint);
  }
}

void TestSmoke(const std::string& dir) {
  using namespace perfbench;
  for (const std::string& workload : WorkloadNames()) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.workload = workload;
      options.smoke = true;
      options.trace = trace;
      options.seed = 3;
      options.data_dir = dir + "/smoke";
      const RunReport report = RunWorkload(options);
      for (const auto& e : report.errors) {
        std::fprintf(stderr, "%s: %s\n", workload.c_str(), e.c_str());
      }
      EXPECT(report.correct());
      EXPECT(report.attempted > 0);
      if (!trace) {
        for (const char* name :
             {"setup_s", "request_p50_ms", "throughput_rps", "graph_mb",
              "peak_rss_mb", "ok_pct", "hit_p50_ms", "append_p50_ms"}) {
          EXPECT(MetricValue(report, name) > 0);
        }
      } else {
        EXPECT(MetricValue(report, "trace.accounted_pct") >= 95);
      }
    }
  }
  RunOptions bad;
  bad.workload = "no_such_workload";
  bad.data_dir = dir + "/bad";
  EXPECT(!RunWorkload(bad).correct());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  TestPercentiles();
  TestSelfTimes();
  TestTracerNesting();
  TestSeedDeterminism(dir);
  TestSmoke(dir);
  if (failures) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
