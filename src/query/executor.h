#ifndef GRAPHGEN_QUERY_EXECUTOR_H_
#define GRAPHGEN_QUERY_EXECUTOR_H_

#include "common/cancel.h"
#include "common/status.h"
#include "obs/profile.h"
#include "query/columnar.h"
#include "query/plan.h"
#include "relational/database.h"

namespace graphgen::query {

/// Which physical engine executes the plan.
enum class ExecEngine {
  /// The parallel columnar pipeline: scans emit selection vectors over the
  /// base tables, joins are partitioned hash joins, projection is a lazy
  /// column remap. Output is deterministic and identical to kRowAtATime
  /// for every thread count.
  kColumnar,
  /// The original serial row-materializing interpreter, kept as the
  /// correctness oracle and benchmark baseline.
  kRowAtATime,
};

struct ExecOptions {
  /// Worker threads for intra-operator parallelism (0 = hardware default,
  /// 1 = fully serial). Results are identical for every value.
  size_t threads = 0;
  ExecEngine engine = ExecEngine::kColumnar;
  /// Request lifecycle context: cooperative cancel flag, deadline, and
  /// transient-memory budget. Every operator polls it at morsel/stride
  /// boundaries and charges its big allocations, so a cancelled, expired,
  /// or over-budget request unwinds with Cancelled / DeadlineExceeded /
  /// ResourceExhausted in bounded time. The default context is inert and
  /// costs two predictable branches per poll.
  ExecContext ctx;
};

/// Executes plan trees against a Database. The columnar engine keeps
/// intermediates as row-id tuples over the base tables (RowIdResult) and
/// only materializes values at the final boundary; the row-at-a-time
/// engine materializes every operator (the seed behavior). Both engines
/// produce bitwise-identical results in identical row order.
/// Executor is stateless and safe to share across threads.
class Executor {
 public:
  explicit Executor(const rel::Database* db, ExecOptions options = {});

  /// Runs the plan and returns its materialized result set. When `parent`
  /// is non-null (and observability is enabled) the engine appends an
  /// EXPLAIN ANALYZE operator subtree under it: per-operator inclusive
  /// timings, input/output cardinalities, join build/probe breakdowns,
  /// and hash-table load factors.
  Result<ResultSet> Execute(const PlanNode& plan,
                            obs::ProfileNode* parent = nullptr) const;

  /// Runs the plan on the columnar engine without materializing values.
  Result<RowIdResult> ExecuteColumnar(const PlanNode& plan,
                                      obs::ProfileNode* parent = nullptr) const;

  /// Runs the plan on the legacy row-at-a-time interpreter.
  Result<ResultSet> ExecuteRowAtATime(const PlanNode& plan,
                                      obs::ProfileNode* parent = nullptr) const;

  const ExecOptions& options() const { return options_; }

 private:
  Result<RowIdResult> ScanColumnar(const ScanNode& node,
                                   obs::ProfileNode* parent) const;
  Result<RowIdResult> JoinColumnar(const HashJoinNode& node,
                                   obs::ProfileNode* parent) const;
  Result<RowIdResult> ProjectColumnar(const ProjectNode& node,
                                      obs::ProfileNode* parent) const;

  Result<ResultSet> ScanRows(const ScanNode& node,
                             obs::ProfileNode* parent) const;
  Result<ResultSet> JoinRows(const HashJoinNode& node,
                             obs::ProfileNode* parent) const;
  Result<ResultSet> ProjectRows(const ProjectNode& node,
                                obs::ProfileNode* parent) const;

  const rel::Database* db_;
  ExecOptions options_;
};

}  // namespace graphgen::query

#endif  // GRAPHGEN_QUERY_EXECUTOR_H_
