#include "common/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "gen/relational_generators.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "planner/extractor.h"
#include "query/executor.h"

namespace graphgen {
namespace {

TEST(CancelTokenTest, NullTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.CancelRequested());
  token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(token.CancelRequested());
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken token = CancelToken::Cancellable();
  CancelToken copy = token;
  EXPECT_TRUE(copy.cancellable());
  EXPECT_FALSE(copy.CancelRequested());
  token.RequestCancel();
  EXPECT_TRUE(copy.CancelRequested());
}

TEST(MemoryBudgetTest, ChargesReleasesAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600, "a").ok());
  EXPECT_EQ(budget.used(), 600u);
  // Over-limit charge is refused and rolled back.
  Status over = budget.TryCharge(500, "b");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_TRUE(budget.TryCharge(400, "c").ok());
  EXPECT_EQ(budget.used(), 1000u);
  EXPECT_EQ(budget.peak(), 1000u);
  budget.Release(400);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.peak(), 1000u);  // peak is sticky
}

TEST(MemoryBudgetTest, LimitZeroTracksButNeverFails) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.TryCharge(size_t{1} << 40, "huge").ok());
  EXPECT_EQ(budget.peak(), size_t{1} << 40);
}

TEST(ExecContextTest, CheckOrderingAndDeadline) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.Check().ok());  // inert default

  ctx.cancel = CancelToken::Cancellable();
  ctx.SetDeadlineAfter(-1.0);  // <= 0 = none
  EXPECT_FALSE(ctx.has_deadline);
  ctx.SetDeadlineAfter(1e-9);
  EXPECT_TRUE(ctx.has_deadline);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);

  // Cancellation wins over an expired deadline.
  ctx.cancel.RequestCancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, ChargeWithoutBudgetIsFree) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.Charge(size_t{1} << 50, "anything").ok());
  ctx.Release(size_t{1} << 50);  // no-op
}

TEST(ExecContextTest, FailedChargeBumpsGlobalCounter) {
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("query.mem_limit_hits");
  const uint64_t before = hits->Value();
  ExecContext ctx;
  ctx.budget = std::make_shared<MemoryBudget>(10);
  EXPECT_EQ(ctx.Charge(100, "too big").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(hits->Value(), before + 1);
}

TEST(ScopedChargeTest, RefundsOnScopeExitAndGrow) {
  ExecContext ctx;
  ctx.budget = std::make_shared<MemoryBudget>(1000);
  {
    ScopedCharge charge;
    ASSERT_TRUE(charge.Acquire(ctx, 300, "scratch").ok());
    EXPECT_EQ(ctx.budget->used(), 300u);
    // Grow folds bytes charged through the same context into the lease.
    ASSERT_TRUE(ctx.Charge(200, "more").ok());
    charge.Grow(200);
    EXPECT_EQ(ctx.budget->used(), 500u);
  }
  EXPECT_EQ(ctx.budget->used(), 0u);  // one refund for both
}

TEST(AbortSlotTest, FirstFailureWins) {
  AbortSlot slot;
  EXPECT_FALSE(slot.Failed());
  EXPECT_TRUE(slot.Take().ok());
  slot.Fail(Status::Cancelled("first"));
  slot.Fail(Status::Internal("second"));
  EXPECT_TRUE(slot.Failed());
  EXPECT_EQ(slot.Take().code(), StatusCode::kCancelled);
  EXPECT_EQ(slot.Take().message(), "first");
}

TEST(AbortSlotTest, ContinueParksContextFailures) {
  AbortSlot slot;
  ExecContext ctx;
  ctx.cancel = CancelToken::Cancellable();
  EXPECT_TRUE(slot.Continue(ctx));
  ctx.cancel.RequestCancel();
  EXPECT_FALSE(slot.Continue(ctx));
  EXPECT_EQ(slot.Take().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------- pipeline

const char* kCoEnrollment =
    "Nodes(ID, Name) :- Student(ID, Name).\n"
    "Edges(ID1, ID2) :- TookCourse(ID1, C), TookCourse(ID2, C).";

planner::ExtractOptions PipelineOptions(query::ExecEngine engine) {
  planner::ExtractOptions o;
  o.large_output_factor = 0.0;
  o.preprocess = false;
  o.engine = engine;
  return o;
}

class PipelineCancelTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = gen::MakeUniversity(500, 20, 100, 8.0); }
  gen::GeneratedDatabase data_;
};

TEST_F(PipelineCancelTest, PreCancelledExtractionUnwindsOnEveryEngine) {
  for (query::ExecEngine engine :
       {query::ExecEngine::kColumnar, query::ExecEngine::kRowAtATime}) {
    planner::ExtractOptions options = PipelineOptions(engine);
    options.ctx.cancel = CancelToken::Cancellable();
    options.ctx.cancel.RequestCancel();
    auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(PipelineCancelTest, ExpiredDeadlineUnwindsOnEveryEngine) {
  for (query::ExecEngine engine :
       {query::ExecEngine::kColumnar, query::ExecEngine::kRowAtATime}) {
    planner::ExtractOptions options = PipelineOptions(engine);
    options.ctx.SetDeadlineAfter(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(PipelineCancelTest, MemoryCeilingSurfacesAsResourceExhausted) {
  for (query::ExecEngine engine :
       {query::ExecEngine::kColumnar, query::ExecEngine::kRowAtATime}) {
    planner::ExtractOptions options = PipelineOptions(engine);
    options.ctx.budget = std::make_shared<MemoryBudget>(size_t{8} << 10);
    auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
    ASSERT_FALSE(result.ok()) << "engine " << static_cast<int>(engine);
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
  }
}

TEST_F(PipelineCancelTest, GenerousBudgetSucceedsAndTracksPeak) {
  planner::ExtractOptions options =
      PipelineOptions(query::ExecEngine::kColumnar);
  options.ctx.budget = std::make_shared<MemoryBudget>(size_t{4} << 30);
  auto result = planner::ExtractFromQuery(data_.db, kCoEnrollment, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(options.ctx.budget->peak(), 0u);
  EXPECT_LE(options.ctx.budget->peak(), options.ctx.budget->limit());

  // A budget never changes the extracted graph: compare against a run
  // without one.
  auto plain = planner::ExtractFromQuery(
      data_.db, kCoEnrollment, PipelineOptions(query::ExecEngine::kColumnar));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(planner::DiffExtraction(*result, *plain), "");
}

// Mid-flight cancellation latency: a condensed co-enrollment extraction
// over 400K enrollment rows is cancelled shortly after it starts; the
// strided polls must unwind it well before it would finish. The wall
// guard is intentionally generous — sanitizer builds on loaded CI
// machines still pass it easily, a hung pipeline never does.
TEST(CancelLatencyTest, MidFlightCancellationUnwindsQuickly) {
  // 10000 students x 40 enrollments; factor 0.0 condenses the rule at the
  // course boundary (scans + virtual-node assembly). It runs for a few
  // hundred ms uncancelled in an optimized build, so a 5ms cancel lands
  // mid-flight.
  gen::GeneratedDatabase data = gen::MakeUniversity(10000, 40, 100, 40.0);
  planner::ExtractOptions options =
      PipelineOptions(query::ExecEngine::kColumnar);
  options.ctx.cancel = CancelToken::Cancellable();
  CancelToken token = options.ctx.cancel;

  std::atomic<int64_t> cancel_ns{0};
  std::thread canceller([token, &cancel_ns] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancel_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_release);
    token.RequestCancel();
  });
  auto result = planner::ExtractFromQuery(data.db, kCoEnrollment, options);
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  canceller.join();
  const double after_cancel =
      (now_ns - cancel_ns.load(std::memory_order_acquire)) * 1e-9;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(after_cancel, 10.0) << "cancellation latency out of bounds";
}

// Mid-join cancellation: a self-join over 1M rows (two rows per key, so
// 2M matches) run straight through the Executor. A watcher cancels the
// moment both input scans have reported their rows — the hash join is
// then between its children and its output, in the build, count or emit
// phase. The join must unwind through its own polls: the request ends
// Cancelled, the profile shows the join node with both scans complete,
// and the join never finished (query.join.build_rows did not move).
TEST(CancelLatencyTest, CancelInsideHashJoinUnwindsQuickly) {
  constexpr size_t kRows = 1 << 20;
  std::vector<int64_t> keys(kRows);
  std::vector<int64_t> vals(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = static_cast<int64_t>(i / 2);
    vals[i] = static_cast<int64_t>(i);
  }
  std::vector<rel::ColumnVector> cols;
  cols.push_back(rel::ColumnVector::OfInt64(std::move(keys)));
  cols.push_back(rel::ColumnVector::OfInt64(std::move(vals)));
  rel::Database db;
  db.PutTable(rel::Table::FromColumns(
      "L",
      rel::Schema({{"k", rel::ValueType::kInt64}, {"v", rel::ValueType::kInt64}}),
      std::move(cols)));
  const query::HashJoinNode join(std::make_unique<query::ScanNode>("L"),
                                 std::make_unique<query::ScanNode>("L"), 0, 0);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::Counter* scanned = reg.GetCounter("query.scan.rows_out");
  const obs::Counter* built = reg.GetCounter("query.join.build_rows");
  const uint64_t scanned_target = scanned->Value() + 2 * kRows;
  const uint64_t built_before = built->Value();

  query::ExecOptions options;
  options.threads = 2;
  options.ctx.cancel = CancelToken::Cancellable();
  CancelToken token = options.ctx.cancel;
  std::atomic<bool> done{false};
  std::atomic<int64_t> cancel_ns{0};
  std::thread watcher([&, token] {
    while (!done.load(std::memory_order_acquire) &&
           scanned->Value() < scanned_target) {
    }
    cancel_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_release);
    token.RequestCancel();
  });

  obs::ProfileNode root("query");
  auto result = query::Executor(&db, options).ExecuteColumnar(join, &root);
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  done.store(true, std::memory_order_release);
  watcher.join();
  const double after_cancel =
      (now_ns - cancel_ns.load(std::memory_order_acquire)) * 1e-9;

  ASSERT_FALSE(result.ok()) << "the join finished before the cancel landed";
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(after_cancel, 10.0) << "cancellation latency out of bounds";
  // The join was entered and both of its inputs completed, but it did
  // not: the cancel was observed inside the join itself.
  EXPECT_EQ(scanned->Value(), scanned_target);
  EXPECT_EQ(built->Value(), built_before);
  if (obs::Enabled()) {
    ASSERT_EQ(root.children.size(), 1u);
    const obs::ProfileNode& hj = root.children.front();
    EXPECT_EQ(hj.name, "hash_join");
    ASSERT_EQ(hj.children.size(), 2u);
    for (const obs::ProfileNode& scan : hj.children) {
      EXPECT_EQ(scan.rows, static_cast<int64_t>(kRows));
    }
    EXPECT_EQ(hj.rows, -1) << "a finished join records its output rows";
  }
}

}  // namespace
}  // namespace graphgen
