#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algos/degree.h"
#include "algos/pagerank.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/graphgen.h"
#include "core/representation_picker.h"
#include "datalog/parser.h"
#include "datalog/validator.h"
#include "gen/relational_generators.h"
#include "planner/extractor.h"
#include "planner/incremental.h"
#include "relational/csv_loader.h"
#include "relational/database.h"
#include "service/graph_service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace graphgen;
using Clock = std::chrono::steady_clock;

// Half of the 4-vCPU reference box: the other half absorbs host noise.
constexpr size_t kThreads = 2;
// Set-up is repeated and its median reported, so one slow load does not
// move setup_s. The run keeps the first set-up; the others are timed after
// peak_rss_mb is read, so their allocator leftovers do not count in it.
constexpr int kSetupReps = 5;
constexpr int kWarmupRequests = 1;
constexpr size_t kLiveWarmupCycles = 5;
// Cache-hit reads after each request or live_append cycle.
constexpr size_t kHitsPerCycle = 3;
// Single-row appends after each request on the extract workloads.
constexpr size_t kAppendsPerRequest = 2;
constexpr double kRankTolerance = 1e-9;
constexpr double kMiB = 1024.0 * 1024.0;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// Counts every operation and check; keeps the first failure messages.
class Ledger {
 public:
  explicit Ledger(RunReport& report) : report_(report) {}
  bool Record(bool ok, const std::string& what) {
    ++report_.attempted;
    if (!ok) {
      ++report_.failed;
      if (report_.errors.size() < 8) report_.errors.push_back(what);
    }
    return ok;
  }
  bool Record(const Status& status, const std::string& what) {
    return Record(status.ok(), what + ": " + status.ToString());
  }

 private:
  RunReport& report_;
};

// ---------------------------------------------------------------- data

struct Sizes {
  double dblp = 0;  // MakeDblpLike multiplier (0 = not used)
  double tpch = 0;  // MakeTpchLike multiplier (0 = not used)
};

gen::GeneratedDatabase MakeDblp(double s, uint64_t seed) {
  return gen::MakeDblpLike(static_cast<size_t>(4000 * s),
                           static_cast<size_t>(8000 * s), 4.0, seed);
}

gen::GeneratedDatabase MakeTpch(double s, uint64_t seed) {
  return gen::MakeTpchLike(static_cast<size_t>(2000 * s),
                           static_cast<size_t>(8000 * s),
                           static_cast<size_t>(100 * s) + 20, 3.0, seed);
}

// Independent sub-seeds for the generators and the operation plan.
struct Seeds {
  uint64_t dblp, tpch, plan;
};

Seeds DeriveSeeds(uint64_t seed) {
  Rng rng(seed);
  Seeds s{};
  s.dblp = rng.Next();
  s.tpch = rng.Next();
  s.plan = rng.Next();
  return s;
}

std::string CsvField(const rel::Value& v) {
  switch (v.type()) {
    case rel::ValueType::kNull: return "";
    case rel::ValueType::kInt64: return std::to_string(v.AsInt64());
    case rel::ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      return buf;
    }
    case rel::ValueType::kString: return v.AsString();
  }
  return "";
}

Status WriteCsv(const rel::Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot write " + path);
  const rel::Schema& schema = table.schema();
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    out << (c ? "," : "") << schema.column(c).name;
  }
  out << '\n';
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const rel::Row row = table.row(r);
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c ? "," : "") << CsvField(row[c]);
    }
    out << '\n';
  }
  out.close();
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

// Writes every table of `db` to `dir`/<table>.csv; returns the names.
Result<std::vector<std::string>> ExportTables(const rel::Database& db,
                                              const std::string& dir) {
  std::vector<std::string> names = db.TableNames();
  for (const std::string& name : names) {
    auto table = db.GetTable(name);
    if (!table.ok()) return table.status();
    GRAPHGEN_RETURN_NOT_OK(WriteCsv(**table, dir + "/" + name + ".csv"));
  }
  return names;
}

// A generator's output once written to CSV: the table names and the
// extraction query. The generated database is freed inside Export, so
// the runs' peak_rss_mb holds only what the program loads.
struct Exported {
  std::vector<std::string> tables;
  std::string datalog;
};

Result<Exported> Export(gen::GeneratedDatabase data, const std::string& dir) {
  Exported out;
  GRAPHGEN_ASSIGN_OR_RETURN(out.tables, ExportTables(data.db, dir));
  out.datalog = std::move(data.datalog);
  return out;
}

struct Loaded {
  std::unique_ptr<rel::Database> db;
  double load_ms = 0;
  uint64_t rows = 0;
};

Result<Loaded> LoadTables(const std::string& dir,
                          const std::vector<std::string>& tables) {
  Loaded out;
  out.db = std::make_unique<rel::Database>();
  const Clock::time_point t0 = Clock::now();
  for (const std::string& name : tables) {
    auto table = rel::LoadCsv(*out.db, name, dir + "/" + name + ".csv");
    if (!table.ok()) return table.status();
    out.rows += (*table)->NumRows();
  }
  out.load_ms = MsSince(t0);
  return out;
}

// ---------------------------------------------------------------- noise

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

// Aggregate host CPU jiffies from /proc/stat (zeros when unavailable).
CpuTimes ReadHostCpu() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  uint64_t v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double ProcessCpuMs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

// The process's resident high-water mark since exec (VmHWM). ru_maxrss is
// the fallback only: the kernel folds the parent's resident size at exec
// into it, so it would report the launching Python's memory as a floor.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMiB;
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / kMiB;
}

// Brackets the timed phase for the noise diagnostics.
class NoiseWindow {
 public:
  NoiseWindow() : host_(ReadHostCpu()), cpu_ms_(ProcessCpuMs()) {}
  void Report(RunReport& report, size_t ops) const {
    const CpuTimes now = ReadHostCpu();
    const double total = static_cast<double>(now.total - host_.total);
    const double steal = static_cast<double>(now.steal - host_.steal);
    report.diagnostics.push_back(
        {"host_steal_pct", total > 0 ? 100.0 * steal / total : 0.0, "%"});
    report.diagnostics.push_back(
        {"cpu_ms_per_op",
         ops ? (ProcessCpuMs() - cpu_ms_) / static_cast<double>(ops) : 0.0,
         "ms"});
    report.diagnostics.push_back(
        {"thread_cap", static_cast<double>(DefaultThreadCount()), "count"});
  }

 private:
  CpuTimes host_;
  double cpu_ms_;
};

// ---------------------------------------------------------------- metrics

void AddLatencyMetrics(RunReport& report, std::vector<double> request_ms,
                       size_t ops, double timed_ms) {
  std::sort(request_ms.begin(), request_ms.end());
  report.metrics.push_back({"request_p50_ms", Median(request_ms), "ms"});
  if (TailReportable(request_ms, 0.9)) {
    report.metrics.push_back(
        {"request_p90_ms", Percentile(request_ms, 0.9), "ms"});
  }
  report.metrics.push_back(
      {"throughput_rps",
       timed_ms > 0 ? static_cast<double>(ops) * 1e3 / timed_ms : 0.0, "1/s"});
}

// `peak_rss_mb` is read at the end of the timed phase, so the correctness
// gate's extra extractions do not count.
void AddCommonMetrics(RunReport& report, const std::vector<double>& setup_s,
                      double graph_bytes, double peak_rss_mb) {
  report.metrics.push_back({"setup_s", Median(setup_s), "s"});
  report.metrics.push_back({"graph_mb", graph_bytes / kMiB, "MB"});
  report.metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
}

void AddOkPct(RunReport& report) {
  const double ok = report.attempted == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(report.attempted -
                                                      report.failed) /
                              static_cast<double>(report.attempted);
  report.metrics.push_back({"ok_pct", ok, "%"});
}

// Per-layer metrics: every name the traced run reports, defaulting to 0
// for layers a workload does not cross.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [name, unit] : kNames) values_[name] = {0.0, unit};
  }
  void Set(const std::string& name, double value) {
    values_.at(name).first = value;
  }
  void SetMedian(const LayerTimes& times, const std::string& span,
                 const std::string& metric) {
    auto it = times.per_request_ms.find(span);
    if (it != times.per_request_ms.end()) Set(metric, Median(it->second));
  }
  void Emit(RunReport& report) const {
    for (const auto& [name, unit] : kNames) {
      report.metrics.push_back({name, values_.at(name).first, unit});
    }
  }

 private:
  static inline const std::vector<std::pair<std::string, std::string>> kNames = {
      {"relational.load_csv_ms", "ms"},
      {"relational.rows_loaded", "count"},
      {"relational.append_ms", "ms"},
      {"datalog.parse_ms", "ms"},
      {"planner.extract_ms", "ms"},
      {"planner.nodes_ms", "ms"},
      {"planner.edges_ms", "ms"},
      {"planner.preprocess_ms", "ms"},
      {"planner.rows_scanned", "count"},
      {"planner.condensed_edges", "count"},
      {"planner.virtual_nodes", "count"},
      {"core.choose_repr_ms", "ms"},
      {"repr.materialize_ms", "ms"},
      {"dedup.materialize_ms", "ms"},
      {"repr.stored_edges", "count"},
      {"repr.graph_bytes", "bytes"},
      {"algos.pagerank_ms", "ms"},
      {"algos.degree_ms", "ms"},
      {"planner.patch_ms", "ms"},
      {"core.patch_self_ms", "ms"},
      {"service.extract_patch_ms", "ms"},
      {"service.hit_ms", "ms"},
      {"service.append_ms", "ms"},
      {"service.cache_hits", "count"},
      {"service.delta_patched", "count"},
      {"service.delta_fallback", "count"},
      {"service.cold_extractions", "count"},
      {"service.patch_success_ratio", "ratio"},
      {"trace.accounted_pct", "%"},
      {"trace.overhead_ms", "ms"},
  };
  std::map<std::string, std::pair<double, std::string>> values_;
};

void SetServiceCounts(LayerMetrics& layers, const service::ServiceStats& st) {
  layers.Set("service.cache_hits", static_cast<double>(st.cache_hits));
  layers.Set("service.delta_patched", static_cast<double>(st.delta_patched));
  layers.Set("service.delta_fallback", static_cast<double>(st.delta_fallback));
  layers.Set("service.cold_extractions",
             static_cast<double>(st.cold_extractions));
  const uint64_t attempts = st.delta_patched + st.delta_fallback;
  layers.Set("service.patch_success_ratio",
             attempts ? static_cast<double>(st.delta_patched) /
                            static_cast<double>(attempts)
                      : 0.0);
}

// Tracing overhead and span coverage of the request roots.
void SetTraceSummary(LayerMetrics& layers, const LayerTimes& requests,
                     const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms) {
  layers.Set("trace.accounted_pct",
             requests.root_total_ms > 0
                 ? 100.0 * requests.accounted_total_ms / requests.root_total_ms
                 : 0.0);
  layers.Set("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms));
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// Sorted out-neighbour lists of every vertex, for representation-level
// equality of two graphs built from the same ids.
std::vector<std::vector<NodeId>> SortedAdjacency(const Graph& g) {
  std::vector<std::vector<NodeId>> adj(g.NumVertices());
  for (size_t u = 0; u < adj.size(); ++u) {
    if (!g.VertexExists(static_cast<NodeId>(u))) continue;
    g.ForEachNeighbor(static_cast<NodeId>(u),
                      [&](NodeId v) { adj[u].push_back(v); });
    std::sort(adj[u].begin(), adj[u].end());
  }
  return adj;
}

GraphGenOptions BaseOptions(Representation repr) {
  GraphGenOptions options;
  options.representation = repr;
  options.extract.threads = kThreads;
  options.dedup.threads = kThreads;
  return options;
}

// The library's default iteration count (10).
PageRankOptions RankOptions() {
  PageRankOptions options;
  options.threads = kThreads;
  return options;
}

// ---------------------------------------------------------------- extract

struct ExtractSpec {
  Sizes sizes;
  Representation requested;
  Representation expected;  // what kAuto must pick on this data
  bool oracle_gate;         // diff against the row-at-a-time engine
  bool exp_rank_gate;       // PageRank equal to PageRank on EXP
  std::string link_table;   // table the appends go to
};

ExtractSpec SpecFor(const std::string& workload, bool smoke) {
  if (workload == "coauthor_exp") {
    return {{smoke ? 0.1 : 4.0, 0}, Representation::kAuto,
            Representation::kExp, true, false, "AuthorPub"};
  }
  if (workload == "copurchase_exp") {
    return {{0, smoke ? 0.1 : 0.5}, Representation::kExp,
            Representation::kExp, true, false, "LineItem"};
  }
  return {{0, smoke ? 0.1 : 0.5}, Representation::kAuto,
          Representation::kBitmap2, false, true, "LineItem"};
}

struct RequestOutput {
  ExtractedGraph graph;
  std::vector<double> ranks;
  planner::ExtractionResult planner_stats;  // traced path only
};

// One request, untraced: the public end-to-end call plus its analysis.
Result<RequestOutput> PlainRequest(const rel::Database& db,
                                   const std::string& datalog,
                                   const GraphGenOptions& options) {
  RequestOutput out;
  GRAPHGEN_ASSIGN_OR_RETURN(out.graph,
                            GraphGen(&db).Extract(datalog, options));
  out.ranks = PageRank(*out.graph.graph, RankOptions());
  return out;
}

// The same request, calling each layer's public entry point under a span:
// parse → planner::Extract → ChooseRepresentation → Materialize → kernel.
Result<RequestOutput> TracedRequest(Tracer& tracer, uint64_t request,
                                    const rel::Database& db,
                                    const std::string& datalog,
                                    GraphGenOptions options) {
  ScopedSpan root(tracer, "request", request);
  RequestOutput out;
  dsl::Program program;
  {
    ScopedSpan span(tracer, "datalog.parse", request);
    GRAPHGEN_ASSIGN_OR_RETURN(program, dsl::Parse(datalog));
    GRAPHGEN_RETURN_NOT_OK(dsl::Validate(program, db));
  }
  planner::ExtractionResult extraction;
  {
    ScopedSpan span(tracer, "planner.extract", request);
    GRAPHGEN_ASSIGN_OR_RETURN(extraction,
                              planner::Extract(db, program, options.extract));
  }
  if (options.representation == Representation::kAuto) {
    ScopedSpan span(tracer, "core.choose_repr", request);
    options.representation =
        ChooseRepresentation(extraction.storage, options.expand_threshold);
  }
  {
    const bool dedup = options.representation != Representation::kExp &&
                       options.representation != Representation::kCDup;
    ScopedSpan span(tracer, dedup ? "dedup.materialize" : "repr.materialize",
                    request);
    GRAPHGEN_ASSIGN_OR_RETURN(
        out.graph,
        GraphGen::Materialize(std::move(extraction.storage), options));
  }
  {
    ScopedSpan span(tracer, "algos.pagerank", request);
    out.ranks = PageRank(*out.graph.graph, RankOptions());
  }
  out.planner_stats = std::move(extraction);
  return out;
}

struct Reference {
  Representation representation = Representation::kCDup;
  size_t footprint = 0;
  std::vector<double> ranks;
};

bool MatchesReference(const RequestOutput& out, const Reference& ref) {
  return out.graph.representation == ref.representation &&
         out.graph.FootprintBytes() == ref.footprint &&
         MaxAbsDiff(out.ranks, ref.ranks) <= kRankTolerance;
}

// Everything one set-up builds: the request database and a service over
// it that answers the cache-hit reads. Services are declared after the
// databases they point to, so they are destroyed first.
struct ExtractState {
  Loaded loaded;
  std::unique_ptr<service::GraphService> hits;
  service::GraphHandle cached;
};

// A second copy of the link table behind its own service, for the
// appends, which would otherwise change the graph the requests extract.
struct AppendTarget {
  Loaded link;
  std::unique_ptr<service::GraphService> service;
};

void RunExtract(const RunOptions& opts, RunReport& report) {
  Ledger ledger(report);
  const ExtractSpec spec = SpecFor(opts.workload, opts.smoke);
  const Seeds seeds = DeriveSeeds(opts.seed);
  const bool dblp = spec.sizes.dblp > 0;
  auto exported = Export(dblp ? MakeDblp(spec.sizes.dblp, seeds.dblp)
                              : MakeTpch(spec.sizes.tpch, seeds.tpch),
                         opts.data_dir);
  if (!ledger.Record(exported.status(), "write CSV")) return;
  const std::string& datalog = exported->datalog;
  const GraphGenOptions options = BaseOptions(spec.requested);
  service::ServiceOptions service_options;
  service_options.worker_threads = kThreads;
  service_options.default_options = options;
  service_options.incremental = false;
  service_options.cache_budget_bytes = 0;

  // The appended link rows: new (author, pub) or (order, part) pairs
  // between existing ids.
  const size_t n = TimedOperations(opts.workload, opts.seconds, opts.smoke);
  std::vector<rel::Row> link_rows;
  Rng rng(seeds.plan);
  const size_t a_ids = dblp ? static_cast<size_t>(4000 * spec.sizes.dblp)
                            : static_cast<size_t>(8000 * spec.sizes.tpch);
  const size_t b_ids = dblp ? static_cast<size_t>(8000 * spec.sizes.dblp)
                            : static_cast<size_t>(100 * spec.sizes.tpch) + 20;
  for (size_t i = 0; i < n * kAppendsPerRequest; ++i) {
    const auto a = static_cast<int64_t>(rng.NextBounded(a_ids));
    const auto b = static_cast<int64_t>(rng.NextBounded(b_ids));
    link_rows.push_back({a, b});
  }

  // Set-up: CSV ingest, the cold first extraction and warm-up. The kept
  // set-up's warm-up output is the reference every later request, and the
  // discarded set-ups' warm-ups, must match.
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  Reference ref;
  auto set_up = [&](ExtractState& st, bool keep) {
    const Clock::time_point t0 = Clock::now();
    auto load = LoadTables(opts.data_dir, exported->tables);
    if (!ledger.Record(load.status(), "load CSV")) return false;
    st.loaded = std::move(*load);
    st.hits = std::make_unique<service::GraphService>(st.loaded.db.get(),
                                                      service_options);
    auto cold = st.hits->Extract(datalog);
    if (!ledger.Record(cold.status(), "cold extraction")) return false;
    st.cached = *cold;
    for (int i = 0; i < kWarmupRequests; ++i) {
      auto out = PlainRequest(*st.loaded.db, datalog, options);
      if (!ledger.Record(out.status(), "warm-up request")) return false;
      if (!keep) {
        ledger.Record(MatchesReference(*out, ref), "warm-up output differs");
        continue;
      }
      ref.representation = out->graph.representation;
      ref.footprint = out->graph.FootprintBytes();
      ref.ranks = std::move(out->ranks);
    }
    setup_s.push_back(MsSince(t0) / 1e3);
    load_ms.push_back(st.loaded.load_ms);
    return true;
  };
  ExtractState state;
  if (!set_up(state, /*keep=*/true)) return;
  const rel::Database& db = *state.loaded.db;
  // Not part of the program's set-up, so loaded outside setup_s.
  AppendTarget appends;
  {
    auto link = LoadTables(opts.data_dir, {spec.link_table});
    if (!ledger.Record(link.status(), "load link table copy")) return;
    appends.link = std::move(*link);
    appends.service = std::make_unique<service::GraphService>(
        appends.link.db.get(), service_options);
  }
  report.fingerprint =
      Mix(Mix(state.loaded.rows, ref.footprint), ref.ranks.size());

  // Timed phase: each request is followed by cache-hit reads and link-row
  // appends, so every operation type samples the whole run. A traced run
  // alternates traced and untraced requests so the tracing overhead is
  // measured under the same host conditions.
  Tracer tracer(opts.trace);
  std::vector<double> untraced_ms, traced_ms, hit_ms, append_ms;
  std::vector<double> nodes_ms, edges_ms, preprocess_ms;
  std::optional<RequestOutput> last;
  NoiseWindow noise;
  const Clock::time_point timed_start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const bool traced = opts.trace && i % 2 == 0;
    const Clock::time_point t0 = Clock::now();
    auto out = traced ? TracedRequest(tracer, i, db, datalog, options)
                      : PlainRequest(db, datalog, options);
    const double ms = MsSince(t0);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (ledger.Record(out.status(), "request")) {
      ledger.Record(MatchesReference(*out, ref), "request output differs");
      if (traced) {
        nodes_ms.push_back(out->planner_stats.nodes_seconds * 1e3);
        edges_ms.push_back(out->planner_stats.edges_seconds * 1e3);
        preprocess_ms.push_back(out->planner_stats.preprocess_seconds * 1e3);
        last = std::move(*out);
      }
    }
    for (size_t h = 0; h < kHitsPerCycle; ++h) {
      Result<service::GraphHandle> hit = Status::Internal("not run");
      {
        ScopedSpan root(tracer, "hit", i);
        const Clock::time_point h0 = Clock::now();
        {
          ScopedSpan span(tracer, "service.hit", i);
          hit = state.hits->Extract(datalog);
        }
        hit_ms.push_back(MsSince(h0));
      }
      ledger.Record(hit.ok() && hit->get() == state.cached.get(), "cache hit");
    }
    for (size_t k = 0; k < kAppendsPerRequest; ++k) {
      Status st;
      {
        ScopedSpan root(tracer, "append", i);
        const Clock::time_point a0 = Clock::now();
        {
          ScopedSpan span(tracer, "service.append", i);
          st = appends.service->Append(
              spec.link_table, {link_rows[i * kAppendsPerRequest + k]});
        }
        append_ms.push_back(MsSince(a0));
      }
      ledger.Record(st, "append");
    }
  }
  const size_t ops = n * (1 + kHitsPerCycle + kAppendsPerRequest);
  const double timed_ms = MsSince(timed_start);
  noise.Report(report, ops);
  const double peak_rss_mb = PeakRssMb();
  for (int rep = 1; rep < (opts.smoke ? 1 : kSetupReps); ++rep) {
    ExtractState discarded;
    if (!set_up(discarded, /*keep=*/false)) return;
  }

  // Correctness gate, outside the timed region.
  ledger.Record(ref.representation == spec.expected,
                "representation picked: " +
                    std::string(RepresentationToString(ref.representation)));
  auto columnar = planner::ExtractFromQuery(db, datalog, options.extract);
  ledger.Record(columnar.status(), "gate extraction");
  if (columnar.ok() && spec.oracle_gate) {
    planner::ExtractOptions oracle_options = options.extract;
    oracle_options.engine = query::ExecEngine::kRowAtATime;
    auto oracle = planner::ExtractFromQuery(db, datalog, oracle_options);
    ledger.Record(oracle.status(), "oracle extraction");
    if (oracle.ok()) {
      const std::string diff = planner::DiffExtraction(*oracle, *columnar);
      ledger.Record(diff.empty(), "EXP graph differs from oracle: " + diff);
    }
  }
  if (columnar.ok() && spec.exp_rank_gate) {
    GraphGenOptions exp_options = options;
    exp_options.representation = Representation::kExp;
    auto exp = GraphGen::Materialize(std::move(columnar->storage), exp_options);
    ledger.Record(exp.status(), "EXP materialization");
    if (exp.ok()) {
      const double diff =
          MaxAbsDiff(PageRank(*exp->graph, RankOptions()), ref.ranks);
      ledger.Record(diff <= kRankTolerance,
                    "PageRank differs from EXP by " + std::to_string(diff));
    }
  }

  if (!opts.trace) {
    AddCommonMetrics(report, setup_s, static_cast<double>(ref.footprint),
                     peak_rss_mb);
    AddLatencyMetrics(report, untraced_ms, ops, timed_ms);
    report.metrics.push_back({"hit_p50_ms", Median(hit_ms), "ms"});
    report.metrics.push_back({"append_p50_ms", Median(append_ms), "ms"});
    AddOkPct(report);
    return;
  }
  LayerMetrics layers;
  layers.Set("relational.load_csv_ms", Median(load_ms));
  layers.Set("relational.rows_loaded", static_cast<double>(state.loaded.rows));
  const LayerTimes requests = CollectLayerTimes(tracer.spans(), "request");
  for (const char* layer : {"datalog.parse", "planner.extract",
                            "core.choose_repr", "repr.materialize",
                            "dedup.materialize", "algos.pagerank"}) {
    layers.SetMedian(requests, layer, std::string(layer) + "_ms");
  }
  layers.SetMedian(CollectLayerTimes(tracer.spans(), "hit"), "service.hit",
                   "service.hit_ms");
  layers.SetMedian(CollectLayerTimes(tracer.spans(), "append"),
                   "service.append", "service.append_ms");
  layers.Set("planner.nodes_ms", Median(nodes_ms));
  layers.Set("planner.edges_ms", Median(edges_ms));
  layers.Set("planner.preprocess_ms", Median(preprocess_ms));
  if (last) {
    layers.Set("planner.rows_scanned",
               static_cast<double>(last->planner_stats.rows_scanned));
    layers.Set("planner.condensed_edges",
               static_cast<double>(last->planner_stats.condensed_edges));
    layers.Set("planner.virtual_nodes",
               static_cast<double>(last->planner_stats.virtual_nodes));
    layers.Set("repr.stored_edges",
               static_cast<double>(last->graph.graph->CountStoredEdges()));
    layers.Set("repr.graph_bytes",
               static_cast<double>(last->graph.FootprintBytes()));
  }
  SetServiceCounts(layers, state.hits->Stats());
  SetTraceSummary(layers, requests, traced_ms, untraced_ms);
  layers.Emit(report);
  if (!opts.trace_path.empty()) {
    ledger.Record(tracer.WriteJsonLines(opts.trace_path), "write spans");
  }
}

// ---------------------------------------------------------------- live

struct LiveState {
  Loaded loaded;
  std::unique_ptr<service::GraphService> service;
  // The incremental state of the cold extraction the patches start from,
  // for the gate; the service drops the basis graph after its first patch.
  std::shared_ptr<const planner::IncrementalState> tpch_basis;
  service::GraphHandle tpch_last;
  service::GraphHandle dblp;
};

struct CycleTimes {
  std::vector<double> append_ms, read_ms, hit_ms;
};

// One live_append cycle through the service: write, patched read with
// degrees, then cache-hit reads of the other graph.
void RunCycle(LiveState& s, const AppendBatch& batch, const std::string& tpch_q,
              const std::string& dblp_q, Tracer& tracer, uint64_t request,
              Ledger& ledger, CycleTimes* times) {
  // Checks and handle releases stay outside the root spans, so a root
  // covers the same work as the latency sample taken inside it.
  Status orders, items;
  {
    ScopedSpan root(tracer, "append", request);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "service.append", request);
      orders = s.service->Append("Orders", batch.orders);
      items = s.service->Append("LineItem", batch.line_items);
    }
    if (times) times->append_ms.push_back(MsSince(t0));
  }
  ledger.Record(orders.ok() ? items : orders, "append");

  Result<service::GraphHandle> graph = Status::Internal("not run");
  size_t degrees = 0;
  {
    ScopedSpan root(tracer, "request", request);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "service.extract_patch", request);
      graph = s.service->Extract(tpch_q);
    }
    if (graph.ok()) {
      ScopedSpan span(tracer, "algos.degree", request);
      degrees = ComputeDegrees(*(*graph)->graph, kThreads).size();
    }
    if (times) times->read_ms.push_back(MsSince(t0));
  }
  if (ledger.Record(graph.status(), "patched read")) {
    ledger.Record(degrees == (*graph)->graph->NumVertices(),
                  "degree vector size");
    s.tpch_last = *graph;
  }

  for (size_t h = 0; h < kHitsPerCycle; ++h) {
    Result<service::GraphHandle> hit = Status::Internal("not run");
    {
      ScopedSpan root(tracer, "hit", request);
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer, "service.hit", request);
        hit = s.service->Extract(dblp_q);
      }
      if (times) times->hit_ms.push_back(MsSince(t0));
    }
    ledger.Record(hit.ok() && hit->get() == s.dblp.get(), "cache hit");
  }
}

// The traced run's direct-layer replay of the same writes and patch on a
// second copy of the database: AppendRows → PatchExtraction →
// PatchExtracted. Kept apart from the service's database so the service
// path does exactly the work the untraced run does.
struct Replay {
  Loaded loaded;
  ExtractedGraph basis;
};

void ReplayCycle(Replay& r, const AppendBatch& batch, const GraphGenOptions& options,
                 Tracer& tracer, uint64_t request, Ledger& ledger) {
  // Results are released after their spans close, so freeing the previous
  // basis is not charged to a layer.
  Status orders, items;
  Result<planner::PatchAttempt> attempt = Status::Internal("not run");
  Result<PatchOutcome> outcome = Status::Internal("not run");
  {
    ScopedSpan root(tracer, "replay", request);
    {
      ScopedSpan span(tracer, "relational.append", request);
      orders = r.loaded.db->AppendRows("Orders", batch.orders);
      items = r.loaded.db->AppendRows("LineItem", batch.line_items);
    }
    {
      ScopedSpan span(tracer, "planner.patch", request);
      attempt = planner::PatchExtraction(*r.loaded.db, *r.basis.incremental,
                                         options.extract);
    }
    {
      ScopedSpan span(tracer, "core.patch", request);
      outcome = GraphGen(r.loaded.db.get()).PatchExtracted(r.basis, options);
    }
  }
  ledger.Record(orders.ok() ? items : orders, "replay append");
  ledger.Record(attempt.ok() && attempt->patched, "replay planner patch");
  if (ledger.Record(outcome.ok() && outcome->patched, "replay core patch")) {
    r.basis = std::move(outcome->graph);
  }
}

void RunLive(const RunOptions& opts, RunReport& report) {
  Ledger ledger(report);
  const double scale = opts.smoke ? 0.1 : 1.0;
  const Seeds seeds = DeriveSeeds(opts.seed);
  auto tpch = Export(MakeTpch(scale, seeds.tpch), opts.data_dir);
  auto dblp = Export(MakeDblp(scale, seeds.dblp), opts.data_dir);
  if (!ledger.Record(tpch.ok() ? dblp.status() : tpch.status(), "write CSV")) {
    return;
  }
  std::vector<std::string> tables = tpch->tables;
  tables.insert(tables.end(), dblp->tables.begin(), dblp->tables.end());
  const std::string& tpch_q = tpch->datalog;
  const std::string& dblp_q = dblp->datalog;

  const size_t n = TimedOperations(opts.workload, opts.seconds, opts.smoke);
  const std::vector<AppendBatch> plan = MakeAppendPlan(
      seeds.plan, kLiveWarmupCycles + n,
      static_cast<int64_t>(8000 * scale), static_cast<size_t>(2000 * scale),
      static_cast<size_t>(100 * scale) + 20);
  for (const AppendBatch& b : plan) {
    for (const auto& row : b.line_items) {
      report.fingerprint = Mix(report.fingerprint, row[0].AsInt64());
      report.fingerprint = Mix(report.fingerprint, row[1].AsInt64());
    }
  }

  GraphGenOptions options = BaseOptions(Representation::kExp);
  service::ServiceOptions service_options;
  service_options.worker_threads = kThreads;
  service_options.default_options = options;
  service_options.incremental = true;
  service_options.cache_budget_bytes = 0;

  Tracer untraced(false);
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  auto set_up = [&](LiveState& st) {
    const Clock::time_point t0 = Clock::now();
    auto load = LoadTables(opts.data_dir, tables);
    if (!ledger.Record(load.status(), "load CSV")) return false;
    st.loaded = std::move(*load);
    st.service = std::make_unique<service::GraphService>(st.loaded.db.get(),
                                                         service_options);
    auto t = st.service->Extract(tpch_q);
    auto d = st.service->Extract(dblp_q);
    if (!ledger.Record(t.ok() ? d.status() : t.status(), "cold extraction") ||
        !ledger.Record((*t)->incremental != nullptr, "no incremental basis")) {
      return false;
    }
    st.tpch_basis = (*t)->incremental;
    st.tpch_last = *t;
    st.dblp = *d;
    for (size_t c = 0; c < kLiveWarmupCycles; ++c) {
      RunCycle(st, plan[c], tpch_q, dblp_q, untraced, 0, ledger, nullptr);
    }
    setup_s.push_back(MsSince(t0) / 1e3);
    load_ms.push_back(st.loaded.load_ms);
    return true;
  };
  LiveState state;
  if (!set_up(state)) return;

  Replay replay;
  Tracer tracer(opts.trace);
  if (opts.trace) {
    auto load = LoadTables(opts.data_dir, tables);
    if (!ledger.Record(load.status(), "replay load")) return;
    replay.loaded = std::move(*load);
    GraphGenOptions capture = options;
    capture.capture_incremental = true;
    auto basis = GraphGen(replay.loaded.db.get()).Extract(tpch_q, capture);
    if (!ledger.Record(basis.status(), "replay basis")) return;
    replay.basis = std::move(*basis);
    for (size_t c = 0; c < kLiveWarmupCycles; ++c) {
      ReplayCycle(replay, plan[c], options, untraced, 0, ledger);
    }
  }

  // Timed phase. A traced run alternates traced and untraced cycles so
  // the tracing overhead is measured under the same host conditions, and
  // replays each cycle's layers directly outside the service roots.
  CycleTimes plain, traced;
  NoiseWindow noise;
  const Clock::time_point timed_start = Clock::now();
  double replay_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    const AppendBatch& batch = plan[kLiveWarmupCycles + i];
    const bool trace_this = opts.trace && i % 2 == 0;
    RunCycle(state, batch, tpch_q, dblp_q,
             trace_this ? tracer : untraced, i, ledger,
             trace_this ? &traced : &plain);
    if (opts.trace) {
      const Clock::time_point t0 = Clock::now();
      ReplayCycle(replay, batch, options, tracer, i, ledger);
      replay_ms += MsSince(t0);
    }
  }
  const double timed_ms = MsSince(timed_start) - replay_ms;
  noise.Report(report, n * (2 + kHitsPerCycle));
  const double peak_rss_mb = PeakRssMb();
  for (int rep = 1; rep < (opts.smoke ? 1 : kSetupReps); ++rep) {
    LiveState discarded;
    if (!set_up(discarded)) return;
  }

  // Correctness gate: no fallbacks, and the final patched graph equals a
  // cold extraction, at the planner level and as an EXP graph.
  const rel::Database& db = *state.loaded.db;
  const service::ServiceStats stats = state.service->Stats();
  ledger.Record(stats.delta_fallback == 0,
                "delta_fallback = " + std::to_string(stats.delta_fallback));
  ledger.Record(stats.delta_patched == kLiveWarmupCycles + n,
                "delta_patched = " + std::to_string(stats.delta_patched));
  auto cold = planner::ExtractFromQuery(db, tpch_q, options.extract);
  auto patched =
      planner::PatchExtraction(db, *state.tpch_basis, options.extract);
  if (ledger.Record(cold.ok() && patched.ok() && patched->patched,
                    "gate extraction/patch")) {
    const std::string diff = planner::DiffExtraction(
        *cold, patched->result, /*compare_scan_counts=*/false);
    ledger.Record(diff.empty(), "patched graph differs from cold: " + diff);
  }
  auto cold_exp = GraphGen(&db).Extract(tpch_q, options);
  if (ledger.Record(cold_exp.status(), "cold EXP extraction")) {
    ledger.Record(SortedAdjacency(*cold_exp->graph) ==
                      SortedAdjacency(*state.tpch_last->graph),
                  "service EXP graph differs from a cold EXP extraction");
  }
  const double graph_bytes =
      static_cast<double>(state.tpch_last->FootprintBytes());
  report.fingerprint = Mix(Mix(report.fingerprint, state.loaded.rows),
                           state.tpch_last->graph->CountStoredEdges());

  if (!opts.trace) {
    AddCommonMetrics(report, setup_s, graph_bytes, peak_rss_mb);
    AddLatencyMetrics(report, plain.read_ms, n * (2 + kHitsPerCycle), timed_ms);
    report.metrics.push_back({"hit_p50_ms", Median(plain.hit_ms), "ms"});
    report.metrics.push_back({"append_p50_ms", Median(plain.append_ms), "ms"});
    AddOkPct(report);
    return;
  }
  LayerMetrics layers;
  layers.Set("relational.load_csv_ms", Median(load_ms));
  layers.Set("relational.rows_loaded", static_cast<double>(state.loaded.rows));
  const LayerTimes requests = CollectLayerTimes(tracer.spans(), "request");
  layers.SetMedian(requests, "service.extract_patch", "service.extract_patch_ms");
  layers.SetMedian(requests, "algos.degree", "algos.degree_ms");
  layers.SetMedian(CollectLayerTimes(tracer.spans(), "hit"), "service.hit",
                   "service.hit_ms");
  layers.SetMedian(CollectLayerTimes(tracer.spans(), "append"),
                   "service.append", "service.append_ms");
  const LayerTimes replays = CollectLayerTimes(tracer.spans(), "replay");
  layers.SetMedian(replays, "relational.append", "relational.append_ms");
  layers.SetMedian(replays, "planner.patch", "planner.patch_ms");
  // PatchExtracted runs PatchExtraction itself; its own share is the
  // difference between the two spans of the same delta.
  const auto core = replays.per_request_ms.find("core.patch");
  const auto plan_ms = replays.per_request_ms.find("planner.patch");
  std::vector<double> core_self;
  if (core != replays.per_request_ms.end() &&
      plan_ms != replays.per_request_ms.end()) {
    for (size_t i = 0; i < core->second.size() && i < plan_ms->second.size();
         ++i) {
      core_self.push_back(core->second[i] - plan_ms->second[i]);
    }
  }
  layers.Set("core.patch_self_ms", Median(core_self));
  layers.Set("repr.stored_edges",
             static_cast<double>(state.tpch_last->graph->CountStoredEdges()));
  layers.Set("repr.graph_bytes", graph_bytes);
  SetServiceCounts(layers, stats);
  SetTraceSummary(layers, requests, traced.read_ms, plain.read_ms);
  layers.Emit(report);
  if (!opts.trace_path.empty()) {
    ledger.Record(tracer.WriteJsonLines(opts.trace_path), "write spans");
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "coauthor_exp", "copurchase_exp", "copurchase_auto", "live_append"};
  return names;
}

size_t TimedOperations(const std::string& workload, int seconds, bool smoke) {
  if (smoke) return 6;
  // Nominal operations per second at 2 threads on a 4-vCPU x86 box; the
  // count is fixed by --seconds alone, so every run of a workload does
  // the same work however fast the host is. At least 100 samples keeps
  // ten beyond the p90.
  double per_second = 7;
  if (workload == "copurchase_exp") per_second = 11;
  if (workload == "copurchase_auto") per_second = 2;
  if (workload == "live_append") per_second = 50;
  return std::max<size_t>(
      100, static_cast<size_t>(std::lround(per_second * std::max(seconds, 1))));
}

std::vector<AppendBatch> MakeAppendPlan(uint64_t seed, size_t cycles,
                                        int64_t first_orderkey,
                                        size_t customers, size_t parts) {
  Rng rng(seed);
  std::vector<AppendBatch> plan(cycles);
  for (size_t c = 0; c < cycles; ++c) {
    const int64_t order = first_orderkey + static_cast<int64_t>(c);
    plan[c].orders.push_back(
        {order, static_cast<int64_t>(rng.NextBounded(customers))});
    std::vector<int64_t> picked;
    while (picked.size() < 3) {
      // Zipf-skewed like the generator's line items: popular parts recur.
      const auto part = static_cast<int64_t>(rng.NextZipf(parts, 1.1) - 1);
      if (std::find(picked.begin(), picked.end(), part) == picked.end()) {
        picked.push_back(part);
        plan[c].line_items.push_back({order, part});
      }
    }
  }
  return plan;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    report.attempted = report.failed = 1;
    report.errors.push_back("unknown workload " + options.workload);
    return report;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  if (options.workload == "live_append") {
    RunLive(options, report);
  } else {
    RunExtract(options, report);
  }
  std::filesystem::remove_all(options.data_dir, ec);
  return report;
}

}  // namespace perfbench
