// Tests for the observability subsystem: sharded metrics under concurrent
// writers (run under TSan in CI), histogram bucketing, the registry,
// ScopedTimer plumbing, EXPLAIN ANALYZE profile correctness against real
// extraction cardinalities, and the service slow-request log.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "gen/relational_generators.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "planner/extractor.h"
#include "service/graph_service.h"

namespace graphgen {
namespace {

/// Forces the observability switch for a test's lifetime and restores the
/// ambient state (which depends on GRAPHGEN_OBS_OFF) afterwards.
class ScopedObsEnabled {
 public:
  explicit ScopedObsEnabled(bool on) : prev_(obs::Enabled()) {
    obs::SetEnabled(on);
  }
  ~ScopedObsEnabled() { obs::SetEnabled(prev_); }

 private:
  bool prev_;
};

TEST(CounterTest, SingleThreadExact) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentWritersMergeExactly) {
  // The TSan target in CI runs this: many writers on one sharded counter
  // with a racing reader, then an exact merged total once quiescent.
  obs::Counter c;
  obs::Histogram h;
  ScopedObsEnabled on(true);
  constexpr int kThreads = 8;
  constexpr int kIters = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t now = c.Value();
      EXPECT_GE(now, last);  // monotonic even mid-race
      last = now;
      (void)h.Snap();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        h.Record(static_cast<uint64_t>(i & 1023));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.Snap().count, static_cast<uint64_t>(kThreads) * kIters);
}

TEST(HistogramTest, Log2BucketsAndPercentiles) {
  ScopedObsEnabled on(true);
  obs::Histogram h;
  for (int i = 0; i < 9; ++i) h.Record(1000);  // bucket 10: [512, 1024)
  h.Record(100000);                            // bucket 17: [65536, 131072)
  obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.sum, 9u * 1000u + 100000u);
  EXPECT_DOUBLE_EQ(s.Mean(), (9.0 * 1000 + 100000) / 10);
  EXPECT_EQ(s.Percentile(0.5), 1023u);
  EXPECT_EQ(s.Percentile(1.0), 131071u);
}

TEST(HistogramTest, DisabledRecordIsNoOp) {
  ScopedObsEnabled off(false);
  obs::Histogram h;
  h.Record(123);
  h.RecordSeconds(1.5);
  EXPECT_EQ(h.Snap().count, 0u);
}

TEST(RegistryTest, StablePointersAndSortedSnapshot) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("b.second");
  EXPECT_EQ(a, reg.GetCounter("b.second"));
  reg.GetCounter("a.first")->Add(7);
  reg.GetGauge("c.third")->Set(-3);
  a->Add(2);
  std::vector<obs::MetricValue> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[0].counter, 7u);
  EXPECT_EQ(snap[1].name, "b.second");
  EXPECT_EQ(snap[1].counter, 2u);
  EXPECT_EQ(snap[2].name, "c.third");
  EXPECT_EQ(snap[2].gauge, -3);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"a.first\": {\"type\": \"counter\", \"value\": 7}"),
            std::string::npos);
}

TEST(ScopedTimerTest, AccumulatesSinksAndCallsBack) {
  double acc_s = 0;
  double acc_ms = 0;
  { ScopedTimer t(&acc_s); }
  { ScopedTimer t(&acc_ms, ScopedTimer::Unit::kMillis); }
  EXPECT_GE(acc_s, 0.0);
  EXPECT_GE(acc_ms, 0.0);
  { ScopedTimer t(&acc_s); }  // accumulates, not overwrites
  EXPECT_GT(acc_s, 0.0);

  ScopedObsEnabled on(true);
  obs::Histogram h;
  { ScopedTimer t(h); }
  EXPECT_EQ(h.Snap().count, 1u);

  double seen = -1;
  { ScopedTimer t([&](double s) { seen = s; }); }
  EXPECT_GE(seen, 0.0);
}

TEST(ProfileTest, SpanHonorsEnabledFlag) {
  obs::ProfileNode node;
  node.name = "x";
  {
    ScopedObsEnabled off(false);
    obs::Span span(&node);
  }
  EXPECT_EQ(node.seconds, 0.0);
  {
    ScopedObsEnabled on(true);
    obs::Span span(&node);
  }
  EXPECT_GE(node.seconds, 0.0);
}

const obs::ProfileNode* FindNode(const obs::ProfileNode& root,
                                 const std::string& name,
                                 const std::string& detail = "") {
  if (root.name == name && (detail.empty() || root.detail == detail)) {
    return &root;
  }
  for (const obs::ProfileNode& child : root.children) {
    if (const obs::ProfileNode* found = FindNode(child, name, detail)) {
      return found;
    }
  }
  return nullptr;
}

TEST(ProfileTest, OperatorRowCountsMatchExtractionCardinalities) {
  ScopedObsEnabled on(true);
  gen::GeneratedDatabase data = gen::MakeDblpLike(200, 300, 3.0);
  auto result = planner::ExtractFromQuery(data.db, data.datalog, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::QueryProfile& profile = result->profile;
  ASSERT_FALSE(profile.empty());
  EXPECT_EQ(profile.query, data.datalog);

  // Stage rows mirror the extraction's own counters.
  const obs::ProfileNode* nodes = FindNode(profile.root, "nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->rows, static_cast<int64_t>(result->real_nodes));
  const obs::ProfileNode* edges = FindNode(profile.root, "edges");
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->rows, static_cast<int64_t>(result->condensed_edges));

  // Leaf scans report the true table cardinality.
  const size_t author_rows =
      data.db.GetTable("Author").ValueOrDie()->NumRows();
  const obs::ProfileNode* scan = FindNode(profile.root, "scan", "Author");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows, static_cast<int64_t>(author_rows));

  // Each node rule's root operator produced exactly the rule's rows.
  for (const obs::ProfileNode& rule : nodes->children) {
    if (rule.name != "rule") continue;
    ASSERT_FALSE(rule.children.empty());
    EXPECT_EQ(rule.children.front().rows, rule.rows);
  }

  // The same tree round-trips through text and JSON.
  std::string text = profile.ToText();
  EXPECT_NE(text.find("-> nodes"), std::string::npos);
  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"name\": \"edges\""), std::string::npos);
}

// Every operator row renders each note once: a key that two code paths
// both write shows up twice on the EXPLAIN ANALYZE line.
void ExpectUniqueNoteKeys(const obs::ProfileNode& node) {
  std::set<std::string> keys;
  for (const auto& [key, value] : node.notes) {
    EXPECT_TRUE(keys.insert(key).second)
        << node.name << " carries note '" << key << "' twice";
  }
  for (const obs::ProfileNode& child : node.children) {
    ExpectUniqueNoteKeys(child);
  }
}

// True if some node named `parent` has a direct child named `child`.
bool HasParentOf(const obs::ProfileNode& node, const std::string& parent,
                 const std::string& child) {
  for (const obs::ProfileNode& c : node.children) {
    if ((node.name == parent && c.name == child) ||
        HasParentOf(c, parent, child)) {
      return true;
    }
  }
  return false;
}

TEST(ProfileTest, NoOperatorCarriesTheSameNoteTwice) {
  ScopedObsEnabled on(true);
  gen::GeneratedDatabase data = gen::MakeDblpLike(200, 300, 3.0);
  planner::ExtractOptions options;
  options.large_output_factor = 1e18;  // expand: the co-author self-join
  auto result = planner::ExtractFromQuery(data.db, data.datalog, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectUniqueNoteKeys(result->profile.root);

  // DISTINCT over the join is a projection whose child is the hash join.
  EXPECT_TRUE(HasParentOf(result->profile.root, "project_distinct",
                          "hash_join"));
}

TEST(SlowLogTest, CapturesAndEvictsBeyondCapacity) {
  ScopedObsEnabled on(true);
  gen::GeneratedDatabase data = gen::MakeDblpLike(100, 150, 3.0);
  service::ServiceOptions options;
  options.slow_request_seconds = 1e-9;  // everything is "slow"
  options.slow_log_capacity = 2;
  service::GraphService svc(&data.db, options);

  // Three distinct cache keys (representation is part of the canonical
  // key), so three cold extractions are admitted into a capacity-2 ring.
  for (Representation r : {Representation::kCDup, Representation::kExp,
                           Representation::kBitmap2}) {
    GraphGenOptions gopts;
    gopts.representation = r;
    auto handle = svc.Extract(data.datalog, gopts);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  }

  EXPECT_EQ(svc.Stats().slow_requests, 3u);
  std::vector<service::SlowRequest> slow = svc.SlowRequests();
  ASSERT_EQ(slow.size(), 2u);  // oldest (sequence 0) evicted
  EXPECT_EQ(slow[0].sequence, 1u);
  EXPECT_EQ(slow[1].sequence, 2u);
  for (const service::SlowRequest& r : slow) {
    EXPECT_EQ(r.datalog, data.datalog);
    EXPECT_GT(r.seconds, 0.0);
    ASSERT_NE(r.profile, nullptr);
    EXPECT_FALSE(r.profile->empty());
    EXPECT_GT(r.profile->wall_seconds, 0.0);
  }

  // A cache hit is not a cold extraction and must not re-enter the log.
  GraphGenOptions gopts;
  gopts.representation = Representation::kBitmap2;
  ASSERT_TRUE(svc.Extract(data.datalog, gopts).ok());
  EXPECT_EQ(svc.Stats().slow_requests, 3u);
  EXPECT_EQ(svc.SlowRequests().size(), 2u);
}

TEST(SlowLogTest, DisabledThresholdLogsNothing) {
  gen::GeneratedDatabase data = gen::MakeDblpLike(50, 80, 3.0);
  service::ServiceOptions options;
  options.slow_request_seconds = 0;  // <= 0 disables the log
  service::GraphService svc(&data.db, options);
  ASSERT_TRUE(svc.Extract(data.datalog).ok());
  EXPECT_EQ(svc.Stats().slow_requests, 0u);
  EXPECT_TRUE(svc.SlowRequests().empty());
}

TEST(ServiceStatsTest, RegistrySnapshotMatchesStatsView) {
  gen::GeneratedDatabase data = gen::MakeDblpLike(50, 80, 3.0);
  service::GraphService svc(&data.db, {});
  ASSERT_TRUE(svc.Extract(data.datalog).ok());
  ASSERT_TRUE(svc.Extract(data.datalog).ok());  // cache hit

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cold_extractions, 1u);

  uint64_t reg_requests = 0;
  int64_t reg_cache_graphs = -1;
  for (const obs::MetricValue& m : svc.MetricsSnapshot()) {
    if (m.name == "service.requests") reg_requests = m.counter;
    if (m.name == "service.cache_graphs") reg_cache_graphs = m.gauge;
  }
  EXPECT_EQ(reg_requests, stats.requests);
  EXPECT_EQ(reg_cache_graphs, static_cast<int64_t>(stats.cache_graphs));
}

}  // namespace
}  // namespace graphgen
