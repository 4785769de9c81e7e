#include "query/executor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/cancel.h"
#include "common/faultpoints.h"
#include "common/flat_table.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "obs/metrics.h"

namespace graphgen::query {

namespace {

// Engine-level counters in the global registry. Pointers are resolved
// once (registry lookups take a lock; Add() does not) and shared by every
// Executor instance.
struct ExecMetrics {
  obs::Counter* scan_rows_in;
  obs::Counter* scan_rows_out;
  obs::Counter* join_build_rows;
  obs::Counter* join_probe_rows;
  obs::Counter* join_matches;
  obs::Counter* distinct_rows_in;
  obs::Counter* distinct_rows_out;
  obs::Counter* simd_scan_vector;
  obs::Counter* simd_scan_scalar;
  obs::Counter* simd_translate_vector;
  obs::Counter* simd_translate_scalar;
};

const ExecMetrics& Metrics() {
  static const ExecMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    ExecMetrics em;
    em.scan_rows_in = r.GetCounter("query.scan.rows_in");
    em.scan_rows_out = r.GetCounter("query.scan.rows_out");
    em.join_build_rows = r.GetCounter("query.join.build_rows");
    em.join_probe_rows = r.GetCounter("query.join.probe_rows");
    em.join_matches = r.GetCounter("query.join.matches");
    em.distinct_rows_in = r.GetCounter("query.distinct.rows_in");
    em.distinct_rows_out = r.GetCounter("query.distinct.rows_out");
    em.simd_scan_vector = r.GetCounter("query.simd.scan_vector");
    em.simd_scan_scalar = r.GetCounter("query.simd.scan_scalar");
    em.simd_translate_vector = r.GetCounter("query.simd.translate_vector");
    em.simd_translate_scalar = r.GetCounter("query.simd.translate_scalar");
    return em;
  }();
  return m;
}

// True when the request context can actually fail a poll (a live cancel
// flag or a deadline); an inert context skips the strided polling paths
// entirely, so the no-deadline fast path stays at seed cost.
bool NeedsPoll(const ExecContext& ctx) {
  return ctx.cancel.cancellable() || ctx.has_deadline;
}

// Runs body(begin, end) over [begin, end) in kCancelStrideRows blocks,
// polling the context between blocks; the first failure parks its Status
// in the slot and the remaining blocks are skipped. With poll == false the
// body runs once over the whole range (no per-block cost).
template <typename Body>
void StridedRun(const ExecContext& ctx, AbortSlot& slot, bool poll,
                size_t begin, size_t end, Body body) {
  if (!poll) {
    body(begin, end);
    return;
  }
  for (size_t b = begin; b < end; b += kCancelStrideRows) {
    if (!slot.Continue(ctx)) return;
    body(b, std::min(end, b + kCancelStrideRows));
  }
}

// The per-operator profile child for an operator about to run, or null
// when nobody is recording.
obs::ProfileNode* OpNode(obs::ProfileNode* parent, std::string_view name,
                         std::string_view detail = {}) {
  if (parent == nullptr || !obs::Enabled()) return nullptr;
  return parent->AddChild(name, detail);
}

using rel::ColumnVector;
using Encoding = rel::ColumnVector::Encoding;

// Below these sizes the spawn/partition overhead outweighs the win; the
// operator runs its serial path (output is identical either way).
constexpr size_t kParallelScanThreshold = 1 << 13;
constexpr size_t kParallelProbeThreshold = 1 << 12;
constexpr size_t kPartitionedBuildThreshold = 1 << 11;
constexpr size_t kParallelDistinctThreshold = 1 << 13;
constexpr size_t kMaxPartitions = 16;
// Predicate evaluation works column-at-a-time over sub-ranges this size,
// so every predicate's pass over a morsel stays in cache.
constexpr size_t kScanMorselRows = 1 << 11;

// Combines hashes of projected row values (FNV-style mix).
struct RowHash {
  size_t operator()(const rel::Row& r) const {
    size_t h = 1469598103934665603ull;
    for (const rel::Value& v : r) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    return h;
  }
};

// Splits [0, n) into at most `parts` equal contiguous chunks.
std::vector<IndexRange> EqualRanges(size_t n, size_t parts) {
  parts = std::max<size_t>(1, std::min(parts, n));
  const size_t chunk = (n + parts - 1) / parts;
  std::vector<IndexRange> ranges;
  for (size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back({begin, std::min(n, begin + chunk)});
  }
  if (ranges.empty()) ranges.push_back({0, 0});
  return ranges;
}

// Output schema of a hash join: left columns keep their names; a right
// column whose name is already taken is qualified as "<table>.<name>"
// and, if even that collides (self-joins), suffixed "#2", "#3", ... —
// deterministic, so downstream name resolution is unambiguous.
void JoinOutputSchema(const rel::Schema& left,
                      const std::vector<std::string>& left_origins,
                      const rel::Schema& right,
                      const std::vector<std::string>& right_origins,
                      rel::Schema* out_schema,
                      std::vector<std::string>* out_origins) {
  std::vector<rel::ColumnDef> cols = left.columns();
  std::unordered_set<std::string> taken;
  taken.reserve(cols.size() + right.NumColumns());
  for (const rel::ColumnDef& c : cols) taken.insert(c.name);
  out_origins->clear();
  out_origins->reserve(cols.size() + right.NumColumns());
  for (size_t i = 0; i < left.NumColumns(); ++i) {
    out_origins->push_back(i < left_origins.size() ? left_origins[i] : "");
  }
  for (size_t i = 0; i < right.NumColumns(); ++i) {
    rel::ColumnDef def = right.column(i);
    const std::string origin =
        i < right_origins.size() ? right_origins[i] : "";
    if (taken.contains(def.name) && !origin.empty()) {
      def.name = origin + "." + def.name;
    }
    if (taken.contains(def.name)) {
      const std::string base = def.name;
      for (int k = 2;; ++k) {
        def.name = base + "#" + std::to_string(k);
        if (!taken.contains(def.name)) break;
      }
    }
    taken.insert(def.name);
    out_origins->push_back(origin);
    cols.push_back(std::move(def));
  }
  *out_schema = rel::Schema(std::move(cols));
}

// Projection output schema shared by both engines.
Status ProjectOutputSchema(const ProjectNode& node, const rel::Schema& child,
                           const std::vector<std::string>& child_origins,
                           rel::Schema* out_schema,
                           std::vector<std::string>* out_origins) {
  for (size_t c : node.columns()) {
    if (c >= child.NumColumns()) {
      return Status::PlanError("projection column out of range");
    }
  }
  std::vector<rel::ColumnDef> cols;
  cols.reserve(node.columns().size());
  out_origins->clear();
  out_origins->reserve(node.columns().size());
  for (size_t i = 0; i < node.columns().size(); ++i) {
    const size_t src = node.columns()[i];
    rel::ColumnDef def = child.column(src);
    if (i < node.output_names().size() && !node.output_names()[i].empty()) {
      def.name = node.output_names()[i];
    }
    cols.push_back(std::move(def));
    out_origins->push_back(src < child_origins.size() ? child_origins[src]
                                                      : "");
  }
  *out_schema = rel::Schema(std::move(cols));
  return Status::OK();
}

// ------------------------------------------------- typed scan evaluation

// A predicate compiled against the physical encoding of its column. The
// compile step hoists everything value-independent out of the row loop:
// the NULL verdict, comparisons that cannot read the cell (a string
// constant against an int64 column), for dictionary columns one verdict
// per distinct string instead of per row — and, for numeric columns, the
// reduction of the row loop to a single simd mask kernel. Ordering on an
// int64 column scalar-promotes through double (Value semantics); the
// compile step converts that bound to a pure int64 threshold once
// (int64→double conversion is monotone, see MaxInt64WithDoubleLess), so
// the kernel runs integer compares only — AVX2 has no epi64→pd convert.
struct CompiledPredicate {
  enum class Kind { kConst, kI64Mask, kF64Mask, kCodeTable, kGeneric };

  const ColumnVector* col = nullptr;
  const Predicate* pred = nullptr;
  Kind kind = Kind::kGeneric;
  bool null_match = false;
  bool const_match = false;           // kConst
  simd::I64MaskOp i64_op = simd::I64MaskOp::kEq;  // kI64Mask
  int64_t i64_bound = 0;
  int64_t i64_eq = 0;
  simd::F64MaskOp f64_op = simd::F64MaskOp::kEq;  // kF64Mask
  double f64_bound = 0.0;
  bool gather_ok = false;             // kCodeTable: codes fit i32 gathers
  std::vector<uint32_t> code_match;   // kCodeTable, 0/1 verdict per code

  void Apply(simd::Tier tier, size_t begin, size_t end, uint8_t* keep) const;
};

CompiledPredicate CompilePredicate(const ColumnVector& col,
                                   const Predicate& p) {
  CompiledPredicate cp;
  cp.col = &col;
  cp.pred = &p;
  cp.null_match = p.MatchesValue(rel::Value::Null());
  const rel::ValueType ct = p.constant.type();
  const bool const_numeric =
      ct == rel::ValueType::kInt64 || ct == rel::ValueType::kDouble;
  auto const_verdict = [&](bool match) {
    cp.kind = CompiledPredicate::Kind::kConst;
    cp.const_match = match;
  };
  auto i64_mask = [&](simd::I64MaskOp op, int64_t bound, int64_t eq) {
    cp.kind = CompiledPredicate::Kind::kI64Mask;
    cp.i64_op = op;
    cp.i64_bound = bound;
    cp.i64_eq = eq;
  };
  // `(double)x < cd` over an int64 column, as a pure int64 compare; when
  // no int64 satisfies it the whole predicate term is constant false.
  auto i64_less = [&](double cd) {
    const std::optional<int64_t> b = simd::MaxInt64WithDoubleLess(cd);
    if (b.has_value()) {
      i64_mask(simd::I64MaskOp::kLe, *b, 0);
    } else {
      const_verdict(false);
    }
  };
  auto i64_greater = [&](double cd) {
    const std::optional<int64_t> b = simd::MinInt64WithDoubleGreater(cd);
    if (b.has_value()) {
      i64_mask(simd::I64MaskOp::kGe, *b, 0);
    } else {
      const_verdict(false);
    }
  };
  switch (col.encoding()) {
    case Encoding::kEmpty:
      const_verdict(cp.null_match);  // every cell is NULL
      break;
    case Encoding::kInt64:
      if (ct == rel::ValueType::kInt64) {
        // Ordering promotes through double exactly like Value::operator<;
        // equality stays exact int64 like Value::operator==.
        const int64_t c = p.constant.AsInt64();
        const double cd = static_cast<double>(c);
        switch (p.op) {
          case CompareOp::kEq: i64_mask(simd::I64MaskOp::kEq, 0, c); break;
          case CompareOp::kNe: i64_mask(simd::I64MaskOp::kNe, 0, c); break;
          case CompareOp::kLt: i64_less(cd); break;
          case CompareOp::kLe: {
            // `(double)x < cd || x == c`: the eq term survives because c
            // itself converts to cd, not below it.
            const std::optional<int64_t> b = simd::MaxInt64WithDoubleLess(cd);
            if (b.has_value()) {
              i64_mask(simd::I64MaskOp::kLeOrEq, *b, c);
            } else {
              i64_mask(simd::I64MaskOp::kEq, 0, c);
            }
            break;
          }
          case CompareOp::kGt: i64_greater(cd); break;
          case CompareOp::kGe: {
            const std::optional<int64_t> b =
                simd::MinInt64WithDoubleGreater(cd);
            if (b.has_value()) {
              i64_mask(simd::I64MaskOp::kGeOrEq, *b, c);
            } else {
              i64_mask(simd::I64MaskOp::kEq, 0, c);
            }
            break;
          }
        }
      } else if (ct == rel::ValueType::kDouble) {
        // Equality never crosses int64/double (Value semantics), so only
        // the ordering terms can match.
        const double cd = p.constant.AsDouble();
        switch (p.op) {
          case CompareOp::kEq: const_verdict(false); break;
          case CompareOp::kNe: const_verdict(true); break;
          case CompareOp::kLt:
          case CompareOp::kLe: i64_less(cd); break;
          case CompareOp::kGt:
          case CompareOp::kGe: i64_greater(cd); break;
        }
      } else {
        // Ordering against strings/NULL depends only on the types.
        const_verdict(p.MatchesValue(rel::Value(int64_t{0})));
      }
      break;
    case Encoding::kDouble:
      if (const_numeric) {
        const double cd = p.constant.AsDouble();
        const bool same_type = ct == rel::ValueType::kDouble;
        cp.kind = CompiledPredicate::Kind::kF64Mask;
        cp.f64_bound = cd;
        switch (p.op) {
          case CompareOp::kEq:
            if (same_type) {
              cp.f64_op = simd::F64MaskOp::kEq;
            } else {
              const_verdict(false);
            }
            break;
          case CompareOp::kNe:
            if (same_type) {
              cp.f64_op = simd::F64MaskOp::kNe;
            } else {
              const_verdict(true);
            }
            break;
          case CompareOp::kLt:
            cp.f64_op = simd::F64MaskOp::kLt;
            break;
          case CompareOp::kLe:
            // `dv < cd || dv == cd` is IEEE `<=` (both false on NaN).
            cp.f64_op = same_type ? simd::F64MaskOp::kLe : simd::F64MaskOp::kLt;
            break;
          case CompareOp::kGt:
            cp.f64_op = simd::F64MaskOp::kGt;
            break;
          case CompareOp::kGe:
            cp.f64_op = same_type ? simd::F64MaskOp::kGe : simd::F64MaskOp::kGt;
            break;
        }
      } else {
        const_verdict(p.MatchesValue(rel::Value(0.0)));
      }
      break;
    case Encoding::kDictString: {
      cp.kind = CompiledPredicate::Kind::kCodeTable;
      const rel::StringDictionary& dict = col.dict();
      cp.gather_ok = dict.size() <= static_cast<size_t>(
                                        std::numeric_limits<int32_t>::max());
      cp.code_match.resize(dict.size());
      for (uint32_t code = 0; code < dict.size(); ++code) {
        cp.code_match[code] =
            p.MatchesValue(rel::Value(dict.At(code))) ? 1 : 0;
      }
      break;
    }
    case Encoding::kMixed:
      cp.kind = CompiledPredicate::Kind::kGeneric;
      break;
  }
  return cp;
}

void CompiledPredicate::Apply(simd::Tier tier, size_t begin, size_t end,
                              uint8_t* keep) const {
  const uint8_t* nulls = col->NullMask();
  const uint8_t* nsub = nulls != nullptr ? nulls + begin : nullptr;
  const size_t n = end - begin;
  switch (kind) {
    case Kind::kI64Mask:
      simd::AndMaskI64(tier, i64_op, col->Int64Data() + begin, i64_bound,
                       i64_eq, nsub, null_match, keep + begin, n);
      return;
    case Kind::kF64Mask:
      simd::AndMaskF64(tier, f64_op, col->DoubleData() + begin, f64_bound,
                       nsub, null_match, keep + begin, n);
      return;
    case Kind::kCodeTable:
      simd::AndMaskCodes(gather_ok ? tier : simd::Tier::kScalar,
                         col->CodeData() + begin, code_match.data(), nsub,
                         null_match, keep + begin, n);
      return;
    case Kind::kConst: {
      // AND-accumulates the constant verdict as straight byte arithmetic:
      // no branch on keep, no branch on NULL.
      const uint8_t cm = const_match ? 1 : 0;
      if (nulls == nullptr) {
        for (size_t i = begin; i < end; ++i) keep[i] &= cm;
        return;
      }
      const uint8_t nm = null_match ? 1 : 0;
      for (size_t i = begin; i < end; ++i) {
        const uint8_t nn = static_cast<uint8_t>(nulls[i] != 0);
        keep[i] &= static_cast<uint8_t>(
            (nn & nm) | (static_cast<uint8_t>(nn ^ 1) & cm));
      }
      return;
    }
    case Kind::kGeneric:
      // The generic kind materializes a Value per cell — far too
      // expensive to evaluate on rows other predicates already dropped,
      // so it alone keeps the per-row guard.
      for (size_t i = begin; i < end; ++i) {
        if (keep[i] == 0) continue;
        const bool m = (nulls != nullptr && nulls[i] != 0)
                           ? null_match
                           : pred->MatchesValue(col->ValueAt(i));
        if (!m) keep[i] = 0;
      }
      return;
  }
}

// A semi-join key filter compiled against its column's encoding. NULL is
// never a member of the node-key set.
struct CompiledSemiJoin {
  const ColumnVector* col = nullptr;
  const KeyFilter* keys = nullptr;
  bool gather_ok = false;            // dict columns: codes fit i32 gathers
  std::vector<uint32_t> code_match;  // dict columns: per-code membership

  void Apply(simd::Tier tier, size_t begin, size_t end, uint8_t* keep) const {
    const uint8_t* nulls = col->NullMask();
    // Hash-set membership probes are too costly to run on rows already
    // dropped, so those paths keep the per-row guard; the dictionary path
    // is a flat per-code table read and runs branch-light.
    auto run = [&](auto match) {
      for (size_t i = begin; i < end; ++i) {
        if (keep[i] == 0) continue;
        const bool m = (nulls != nullptr && nulls[i] != 0) ? false : match(i);
        if (!m) keep[i] = 0;
      }
    };
    switch (col->encoding()) {
      case Encoding::kEmpty:
        std::fill(keep + begin, keep + end, uint8_t{0});
        return;
      case Encoding::kInt64: {
        const int64_t* data = col->Int64Data();
        run([&](size_t i) { return keys->ints.contains(data[i]); });
        return;
      }
      case Encoding::kDictString: {
        // NULL placeholders store code 0, and NULL is never a member, so
        // the shared mask kernel runs with null_match = false.
        const uint8_t* nsub = nulls != nullptr ? nulls + begin : nullptr;
        simd::AndMaskCodes(gather_ok ? tier : simd::Tier::kScalar,
                           col->CodeData() + begin, code_match.data(), nsub,
                           /*null_match=*/false, keep + begin, end - begin);
        return;
      }
      case Encoding::kDouble: {
        const double* data = col->DoubleData();
        run([&](size_t i) {
          return keys->others.contains(rel::Value(data[i]));
        });
        return;
      }
      case Encoding::kMixed:
        run([&](size_t i) { return keys->Contains(col->ValueAt(i)); });
        return;
    }
  }
};

CompiledSemiJoin CompileSemiJoin(const ColumnVector& col,
                                 const SemiJoin& sj) {
  CompiledSemiJoin cf;
  cf.col = &col;
  cf.keys = sj.keys.get();
  if (col.encoding() == Encoding::kDictString) {
    const rel::StringDictionary& dict = col.dict();
    cf.gather_ok = dict.size() <= static_cast<size_t>(
                                      std::numeric_limits<int32_t>::max());
    cf.code_match.resize(dict.size());
    for (uint32_t code = 0; code < dict.size(); ++code) {
      cf.code_match[code] = sj.keys->strings.contains(dict.At(code)) ? 1 : 0;
    }
  }
  return cf;
}

// ---------------------------------------------------- typed join kernels

// The DISTINCT sets seed their slot tables at this many keys and double
// on load-factor trips instead of presizing for the offer count: on
// duplicate-heavy inputs the offer count overstates the key count by
// orders of magnitude, and a right-sized table keeps the random-probe
// working set cache-resident. 64K keys ≈ 512KB of slots — about one L2.
constexpr size_t kDistinctSeedSlots = 64 * 1024;

// How many offers ahead the batched DISTINCT insert loops prefetch their
// first probe slot. The loops hash a whole batch before probing, so the
// future slot address is one mask away; prefetching it lets the random
// first-probe misses overlap instead of serializing on a grown table
// that no longer fits in cache. Purely a cache hint — results are
// untouched (a table growth between hint and probe only wastes the hint).
constexpr size_t kProbePrefetchDist = 16;

// Open-addressing hash table from Key to an ascending chain of build row
// ids, on the shared FlatTable core (placement and tags there; keys,
// cached hashes and chain ends here, per slot). Sized once for the
// partition's rows, so it never grows. Chains thread through one `next`
// array indexed by build row — the array is shared across partitions
// (partitions own disjoint rows), so chain memory is paid once, not per
// partition. Rows must be inserted in ascending order so chains stay
// ascending.
template <typename Key>
struct FlatChainTable {
  FlatTable table;
  std::vector<Key> keys;      // per slot
  std::vector<int64_t> hash;  // per slot, cached full hash
  std::vector<int32_t> head;  // per slot, first build row
  std::vector<int32_t> tail;  // per slot, last build row of the chain
  std::vector<uint32_t> count;  // per slot, chain length (match estimates)
  int32_t* next = nullptr;    // shared: per build row, next equal-key row

  void Init(size_t rows_in_partition, int32_t* shared_next) {
    table = FlatTable(rows_in_partition);
    const size_t cap = table.capacity();
    keys.resize(cap);
    hash.resize(cap);
    head.resize(cap);
    tail.resize(cap);
    count.resize(cap);
    next = shared_next;
  }

  void Insert(const Key& k, uint64_t h, uint32_t row) {
    const FlatTable::Probe p = table.FindOrInsert(h, Equal(k, h));
    const size_t s = p.slot;
    if (p.found) {
      next[tail[s]] = static_cast<int32_t>(row);
      ++count[s];
    } else {
      keys[s] = k;
      hash[s] = static_cast<int64_t>(h);
      head[s] = static_cast<int32_t>(row);
      count[s] = 1;
    }
    tail[s] = static_cast<int32_t>(row);
    next[row] = -1;
  }

  // First build row with key k, or -1.
  int32_t Find(const Key& k, uint64_t h) const {
    const FlatTable::Probe p = table.Find(h, Equal(k, h));
    return p.found ? head[p.slot] : -1;
  }

  // Number of build rows with key k (0 when absent).
  uint32_t CountFor(const Key& k, uint64_t h) const {
    const FlatTable::Probe p = table.Find(h, Equal(k, h));
    return p.found ? count[p.slot] : 0;
  }

 private:
  auto Equal(const Key& k, uint64_t h) const {
    return [this, &k, h](size_t s) {
      return hash[s] == static_cast<int64_t>(h) && keys[s] == k;
    };
  }
};

// ------------------------------------------------- typed DISTINCT kernel

// Flattened per-column readers for DISTINCT hashing/equality: everything
// is raw array reads (int64 data, dictionary codes, cached string
// hashes), no per-cell function calls or Value materialization.
struct DistinctCol {
  enum class Kind : uint8_t { kInt64, kDouble, kDict, kMixed, kAllNull };
  Kind kind = Kind::kAllNull;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint32_t* codes = nullptr;
  const rel::StringDictionary* dict = nullptr;
  const ColumnVector* col = nullptr;  // mixed fallback
  const uint8_t* nulls = nullptr;
  uint32_t slot = 0;

  static DistinctCol Make(const BoundColumn& b) {
    DistinctCol d;
    d.slot = b.slot;
    d.nulls = b.col->NullMask();
    d.col = b.col;
    switch (b.col->encoding()) {
      case Encoding::kInt64:
        d.kind = Kind::kInt64;
        d.ints = b.col->Int64Data();
        break;
      case Encoding::kDouble:
        d.kind = Kind::kDouble;
        d.doubles = b.col->DoubleData();
        break;
      case Encoding::kDictString:
        d.kind = Kind::kDict;
        d.codes = b.col->CodeData();
        d.dict = &b.col->dict();
        break;
      case Encoding::kMixed:
        d.kind = Kind::kMixed;
        break;
      case Encoding::kEmpty:
        d.kind = Kind::kAllNull;
        break;
    }
    return d;
  }

  bool IsNull(size_t id) const {
    return kind == Kind::kAllNull || (nulls != nullptr && nulls[id] != 0);
  }

  uint64_t Hash(size_t id) const {
    if (IsNull(id)) return 0x9e3779b9u;
    switch (kind) {
      case Kind::kInt64: return MixInt64(static_cast<uint64_t>(ints[id]));
      case Kind::kDouble: return std::hash<double>{}(doubles[id]);
      case Kind::kDict: return dict->HashOf(codes[id]);
      case Kind::kMixed: return col->MixedAt(id).Hash();
      case Kind::kAllNull: break;
    }
    return 0x9e3779b9u;
  }

  // Value-equality of two cells of this column (codes compare directly:
  // one column has one dictionary).
  bool Equal(size_t a, size_t b) const {
    const bool an = IsNull(a);
    const bool bn = IsNull(b);
    if (an || bn) return an == bn;
    switch (kind) {
      case Kind::kInt64: return ints[a] == ints[b];
      case Kind::kDouble: return doubles[a] == doubles[b];
      case Kind::kDict: return codes[a] == codes[b];
      case Kind::kMixed: return col->MixedAt(a) == col->MixedAt(b);
      case Kind::kAllNull: break;
    }
    return true;
  }
};

// Projected-key hash of one row-id tuple: FNV-combine of the projected
// columns' hashes plus a final avalanche (the flat set masks low bits).
uint64_t DistinctHash(const std::vector<DistinctCol>& cols,
                      const uint32_t* tup) {
  uint64_t h = 1469598103934665603ull;
  for (const DistinctCol& c : cols) {
    h ^= c.Hash(tup[c.slot]);
    h *= 1099511628211ull;
  }
  return MixInt64(h);
}

// Open-addressing first-occurrence set over row ids with precomputed
// hashes, on the shared FlatTable core (one row id per slot here). Rows
// must be offered in ascending order; survivors come out in that same
// order. The table is sized for the keys seen so far and doubles on
// load-factor trips, so duplicate-heavy inputs probe a cache-resident
// table instead of one sized for the full input.
class FlatDistinctSet {
 public:
  FlatDistinctSet(size_t expected_rows, const std::vector<uint64_t>& hashes,
                  const RowIdResult& rows, const std::vector<DistinctCol>& cols)
      : hashes_(hashes),
        rows_(rows),
        cols_(cols),
        table_(std::min(expected_rows, kDistinctSeedSlots)),
        slots_(table_.capacity()) {}

  // Cache hint for a future Insert(i): pulls the first probe group of
  // row i's slot walk. See kProbePrefetchDist.
  void PrefetchSlot(uint32_t i) const {
    table_.Prefetch(hashes_[i], slots_.data());
  }

  // Second pipeline stage: by the time this runs the slot group is in
  // cache (PrefetchSlot ran a distance earlier), so the group can be
  // read — not just prefetched — and the *candidates'* tuple records
  // pulled in. Duplicate offers otherwise serialize on that dependent
  // load, which is the dominant miss on low-duplication inputs once the
  // input outgrows the cache. Read-only: the real Insert re-probes from
  // scratch, so a stale view (intervening inserts or growth) only
  // weakens the hint.
  void WarmProbe(uint32_t i) const {
    const size_t w = rows_.Width();
    table_.ForEachHomeCandidate(hashes_[i], [&](size_t slot) {
      __builtin_prefetch(&rows_.tuples[static_cast<size_t>(slots_[slot]) * w]);
    });
  }

  // True if row i is the first occurrence of its key.
  bool Insert(uint32_t i) {
    if (table_.Full()) Grow();
    // No stored-hash pre-check: the 7-bit tag already filtered to ~1%
    // false candidates, RowsEqual alone decides, and skipping hashes_[r]
    // saves a dependent cache line per duplicate offer.
    const FlatTable::Probe p = table_.FindOrInsert(
        hashes_[i], [&](size_t s) { return RowsEqual(slots_[s], i); });
    if (p.found) return false;
    slots_[p.slot] = i;
    return true;
  }

 private:
  // Doubles the slot table and re-places the retained rows. Growth
  // relocates slots only; survivors and their order are untouched.
  void Grow() {
    std::vector<uint32_t> old(2 * table_.capacity());
    old.swap(slots_);
    table_.Grow([&](size_t s) { return hashes_[old[s]]; },
                [&](size_t from, size_t to) { slots_[to] = old[from]; });
  }

  bool RowsEqual(uint32_t a, uint32_t b) const {
    const size_t w = rows_.Width();
    const uint32_t* ta = &rows_.tuples[static_cast<size_t>(a) * w];
    const uint32_t* tb = &rows_.tuples[static_cast<size_t>(b) * w];
    for (const DistinctCol& c : cols_) {
      if (!c.Equal(ta[c.slot], tb[c.slot])) return false;
    }
    return true;
  }

  const std::vector<uint64_t>& hashes_;
  const RowIdResult& rows_;
  const std::vector<DistinctCol>& cols_;
  FlatTable table_;
  std::vector<uint32_t> slots_;  // per slot, survivor row id
};

// The build phase of the partitioned hash join: typed keys and hashes
// are precomputed in parallel, then P flat per-partition tables are
// built over build rows in ascending order (per-key chains stay ascending,
// which is what makes probe output order the serial order).
template <typename Key>
struct JoinBuild {
  std::vector<uint64_t> bhash;
  std::vector<uint8_t> bnull;
  std::vector<Key> bkeys;
  std::vector<int32_t> chain_next;
  std::vector<FlatChainTable<Key>> tables;
  size_t partitions = 1;
  /// Build-side scratch charged against the request's memory budget,
  /// refunded when the build dies at the end of the operator.
  ScopedCharge charge;
};

template <typename Key, typename HashFn, typename BuildKeyFn>
JoinBuild<Key> BuildJoinTables(size_t bn, size_t threads, HashFn hash,
                               BuildKeyFn bkey, const ExecContext& ctx,
                               AbortSlot& slot) {
  JoinBuild<Key> jb;
  // Key/hash/null/chain arrays are the first of the join's two big
  // allocations; the per-partition slot arrays are priced below once the
  // partition fan-out is known.
  const size_t key_bytes =
      bn * (sizeof(uint64_t) + 1 + sizeof(Key) + sizeof(int32_t));
  if (Status st = jb.charge.Acquire(ctx, key_bytes, "hash-join build keys");
      !st.ok()) {
    slot.Fail(std::move(st));
    return jb;
  }
  jb.bhash.resize(bn);
  jb.bnull.resize(bn);
  jb.bkeys.resize(bn);
  const bool poll = NeedsPoll(ctx);
  ParallelFor(
      bn,
      [&](size_t begin, size_t end) {
        StridedRun(ctx, slot, poll, begin, end, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            Key k{};
            if (bkey(i, &k)) {
              jb.bkeys[i] = std::move(k);
              jb.bhash[i] = hash(jb.bkeys[i]);
              jb.bnull[i] = 0;
            } else {
              jb.bnull[i] = 1;
            }
          }
        });
      },
      threads);
  if (slot.Failed()) return jb;

  jb.partitions = (threads > 1 && bn >= kPartitionedBuildThreshold)
                      ? std::min(threads, kMaxPartitions)
                      : 1;
  std::vector<size_t> partition_rows(jb.partitions, 0);
  if (jb.partitions == 1) {
    for (size_t i = 0; i < bn; ++i) {
      if (jb.bnull[i] == 0) ++partition_rows[0];
    }
  } else {
    for (size_t i = 0; i < bn; ++i) {
      if (jb.bnull[i] == 0) ++partition_rows[jb.bhash[i] % jb.partitions];
    }
  }
  // Per-slot: key + cached hash + head + tail + count + probe tag.
  constexpr size_t kSlotBytes = sizeof(Key) + sizeof(int64_t) +
                                2 * sizeof(int32_t) + sizeof(uint32_t) +
                                sizeof(uint8_t);
  size_t table_bytes = 0;
  for (size_t rows : partition_rows) {
    table_bytes += FlatTable::CapacityFor(rows) * kSlotBytes;
  }
  if (Status st = ctx.Charge(table_bytes, "hash-join slot tables");
      !st.ok()) {
    slot.Fail(std::move(st));
    return jb;
  }
  jb.charge.Grow(table_bytes);
  jb.chain_next.resize(bn);
  jb.tables.resize(jb.partitions);
  ParallelInvoke(jb.partitions, [&](size_t p) {
    if (slot.Failed()) return;
    FlatChainTable<Key>& ht = jb.tables[p];
    ht.Init(partition_rows[p], jb.chain_next.data());
    StridedRun(ctx, slot, poll, 0, bn, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        if (jb.bnull[i] != 0 || jb.bhash[i] % jb.partitions != p) continue;
        ht.Insert(jb.bkeys[i], jb.bhash[i], static_cast<uint32_t>(i));
      }
    });
  });
  return jb;
}

// Total number of join matches a probe range will emit, from the build
// chains' cached lengths — O(range rows), no chain walking.
template <typename Key, typename HashFn, typename ProbeKeyFn>
size_t CountJoinRange(const JoinBuild<Key>& jb, IndexRange range, HashFn hash,
                      ProbeKeyFn pkey) {
  size_t expected = 0;
  for (size_t pr = range.begin; pr < range.end; ++pr) {
    Key k{};
    if (!pkey(pr, &k)) continue;
    const uint64_t h = hash(k);
    expected += jb.tables[h % jb.partitions].CountFor(k, h);
  }
  return expected;
}

// Materializes one probe range's matches as concatenated (left, right)
// row-id tuples in serial probe order, writing through a raw cursor into
// storage the caller presized from the range's exact match count —
// no per-match vector bookkeeping. Returns the advanced cursor.
template <typename Key, typename HashFn, typename ProbeKeyFn>
uint32_t* EmitJoinRange(const JoinBuild<Key>& jb, IndexRange range, HashFn hash,
                        ProbeKeyFn pkey, const RowIdResult& build,
                        const RowIdResult& probe, bool build_left, size_t lw,
                        size_t rw, uint32_t* out) {
  const size_t bw = build_left ? lw : rw;
  const size_t pw = build_left ? rw : lw;
  for (size_t pr = range.begin; pr < range.end; ++pr) {
    Key k{};
    if (!pkey(pr, &k)) continue;
    const uint64_t h = hash(k);
    const FlatChainTable<Key>& ht = jb.tables[h % jb.partitions];
    int32_t bi = ht.Find(k, h);
    if (bi < 0) continue;
    const uint32_t* ptup = &probe.tuples[pr * pw];
    for (; bi >= 0; bi = ht.next[bi]) {
      const uint32_t* btup = &build.tuples[static_cast<size_t>(bi) * bw];
      const uint32_t* ltup = build_left ? btup : ptup;
      const uint32_t* rtup = build_left ? ptup : btup;
      for (size_t j = 0; j < lw; ++j) out[j] = ltup[j];
      for (size_t j = 0; j < rw; ++j) out[lw + j] = rtup[j];
      out += lw + rw;
    }
  }
  return out;
}

// Hash-table shape facts for the profile tree, filled only when someone
// is recording (the occupancy sums cost a pass over the build input).
struct JoinProfInfo {
  size_t partitions = 1;
  size_t build_keys = 0;  // non-NULL build rows inserted into the tables
  size_t capacity = 0;    // total slots across partition tables
};

template <typename Key>
void FillJoinProfInfo(const JoinBuild<Key>& jb, size_t bn,
                      JoinProfInfo* info) {
  if (info == nullptr) return;
  info->partitions = jb.partitions;
  size_t nulls = 0;
  for (size_t i = 0; i < bn; ++i) nulls += jb.bnull[i];
  info->build_keys = bn - nulls;
  for (const FlatChainTable<Key>& t : jb.tables) {
    info->capacity += t.table.capacity();
  }
}

// Partitioned hash join over typed keys. `bkey`/`pkey` extract the key of
// a build/probe row (returning false for NULL — NULL joins nothing), and
// `hash` mixes it. Output row order is the serial probe order for every
// thread count and every key type: partitions scan build rows in
// ascending order (so per-key chains are ascending) and probe ranges
// concatenate in index order.
template <typename Key, typename HashFn, typename BuildKeyFn,
          typename ProbeKeyFn>
std::vector<uint32_t> PartitionedJoin(const RowIdResult& left,
                                      const RowIdResult& right,
                                      bool build_left, size_t threads,
                                      HashFn hash, BuildKeyFn bkey,
                                      ProbeKeyFn pkey, const ExecContext& ctx,
                                      AbortSlot& slot,
                                      JoinProfInfo* info = nullptr) {
  const RowIdResult& build = build_left ? left : right;
  const RowIdResult& probe = build_left ? right : left;
  const size_t pn = probe.NumRows();
  const size_t lw = left.Width();
  const size_t rw = right.Width();

  JoinBuild<Key> jb = BuildJoinTables<Key>(build.NumRows(), threads, hash,
                                           bkey, ctx, slot);
  if (slot.Failed()) return {};
  FillJoinProfInfo(jb, build.NumRows(), info);

  // Probe in contiguous ranges. A counting pre-pass over the probe rows
  // (cached chain lengths, no chain walking) gives each range its exact
  // match count, so the emit pass writes matches straight into the final
  // tuple vector at per-range offsets — no per-range buffers, no
  // concatenation copy over the full output, and the operator's memory
  // peak is the output itself rather than twice it. Both passes poll at
  // the cancel stride.
  const size_t probe_ways =
      (threads > 1 && pn >= kParallelProbeThreshold) ? threads : 1;
  const bool poll = NeedsPoll(ctx);
  std::vector<IndexRange> ranges = EqualRanges(pn, probe_ways);
  std::vector<size_t> counts(ranges.size(), 0);
  ParallelInvoke(ranges.size(), [&](size_t t) {
    StridedRun(ctx, slot, poll, ranges[t].begin, ranges[t].end,
               [&](size_t b, size_t e) {
                 counts[t] += CountJoinRange(jb, {b, e}, hash, pkey);
               });
  });
  if (slot.Failed()) return {};
  const size_t w = lw + rw;
  size_t total = 0;
  for (size_t c : counts) total += c * w;
  if (Status st = ctx.Charge(total * sizeof(uint32_t), "join output tuples");
      !st.ok()) {
    slot.Fail(std::move(st));
    return {};
  }
  std::vector<uint32_t> tuples(total);
  std::vector<size_t> offsets(ranges.size(), 0);
  for (size_t t = 0, off = 0; t < ranges.size(); ++t) {
    offsets[t] = off;
    off += counts[t] * w;
  }
  ParallelInvoke(ranges.size(), [&](size_t t) {
    uint32_t* out = tuples.data() + offsets[t];
    StridedRun(ctx, slot, poll, ranges[t].begin, ranges[t].end,
               [&](size_t b, size_t e) {
                 out = EmitJoinRange(jb, {b, e}, hash, pkey, build, probe,
                                     build_left, lw, rw, out);
               });
  });
  if (slot.Failed()) return {};
  return tuples;
}

// Encoding-specialized key extraction for a hash join. Invokes
// run(KeyTag<Key>{}, hash, bkey, pkey) with lambdas specialized for the
// key column pair, or returns false (without invoking run) when the
// encodings make the join provably empty: Value equality never crosses
// int64/double/string, so differently typed (non-mixed) key columns
// cannot match, and an all-NULL column joins nothing.
template <typename T>
struct KeyTag {
  using type = T;
};

template <typename Run>
bool WithTypedJoinKeys(const RowIdResult& build, const RowIdResult& probe,
                       const BoundColumn& bcol, const BoundColumn& pcol,
                       const ExecContext& ctx, AbortSlot& slot, Run run) {
  const Encoding be = bcol.col->encoding();
  const Encoding pe = pcol.col->encoding();
  const bool impossible = be == Encoding::kEmpty || pe == Encoding::kEmpty ||
                          (be != pe && be != Encoding::kMixed &&
                           pe != Encoding::kMixed);
  if (impossible) return false;

  if (be == Encoding::kInt64 && pe == Encoding::kInt64) {
    // int64-specialized kernel: raw key arrays, no Value, no Value::Hash.
    const ColumnVector& bc = *bcol.col;
    const ColumnVector& pc = *pcol.col;
    run(KeyTag<int64_t>{},
        [](int64_t k) { return MixInt64(static_cast<uint64_t>(k)); },
        [&](size_t i, int64_t* k) {
          const size_t id = build.RowId(bcol, i);
          if (bc.IsNull(id)) return false;
          *k = bc.Int64At(id);
          return true;
        },
        [&](size_t i, int64_t* k) {
          const size_t id = probe.RowId(pcol, i);
          if (pc.IsNull(id)) return false;
          *k = pc.Int64At(id);
          return true;
        });
    return true;
  }

  if (be == Encoding::kDouble && pe == Encoding::kDouble) {
    const ColumnVector& bc = *bcol.col;
    const ColumnVector& pc = *pcol.col;
    run(KeyTag<double>{}, [](double k) { return std::hash<double>{}(k); },
        [&](size_t i, double* k) {
          const size_t id = build.RowId(bcol, i);
          if (bc.IsNull(id)) return false;
          *k = bc.DoubleAt(id);
          return true;
        },
        [&](size_t i, double* k) {
          const size_t id = probe.RowId(pcol, i);
          if (pc.IsNull(id)) return false;
          *k = pc.DoubleAt(id);
          return true;
        });
    return true;
  }

  if (be == Encoding::kDictString && pe == Encoding::kDictString) {
    // Dictionary kernel: join on build-side codes. Both dictionaries are
    // deduplicated, so "strings equal" <=> "codes equal after translating
    // probe codes into the build dictionary" — one string lookup per
    // distinct probe value, zero per row. The probe side is translated in
    // one batched pass up front (simd::TranslateCodes chains the
    // tuple→row-id→code→build-code gathers 8 lanes at a time), so the
    // count and emit passes both read a flat int32 array instead of
    // re-deriving keys per probe row per pass.
    const ColumnVector& bc = *bcol.col;
    const ColumnVector& pc = *pcol.col;
    const rel::StringDictionary& bd = bc.dict();
    const rel::StringDictionary& pd = pc.dict();
    const bool same_dict = &bd == &pd;
    auto bkey = [&](size_t i, uint32_t* k) {
      const size_t id = build.RowId(bcol, i);
      if (bc.IsNull(id)) return false;
      *k = bc.CodeAt(id);
      return true;
    };
    constexpr size_t kMaxCode =
        static_cast<size_t>(std::numeric_limits<int32_t>::max());
    if (bd.size() > kMaxCode || pd.size() > kMaxCode) {
      // Codes beyond int32 cannot ride the batched path; keep the
      // per-row translation (practically unreachable).
      std::vector<int64_t> trans;
      if (!same_dict) {
        trans.resize(pd.size());
        for (uint32_t code = 0; code < pd.size(); ++code) {
          std::optional<uint32_t> t = bd.Find(pd.At(code));
          trans[code] = t.has_value() ? static_cast<int64_t>(*t) : -1;
        }
      }
      run(KeyTag<uint32_t>{}, [](uint32_t k) { return MixInt64(k); }, bkey,
          [&](size_t i, uint32_t* k) {
            const size_t id = probe.RowId(pcol, i);
            if (pc.IsNull(id)) return false;
            const uint32_t code = pc.CodeAt(id);
            if (same_dict) {
              *k = code;
              return true;
            }
            const int64_t t = trans[code];
            if (t < 0) return false;
            *k = static_cast<uint32_t>(t);
            return true;
          });
      return true;
    }
    const size_t pn = probe.NumRows();
    ScopedCharge trans_charge;
    if (Status st = trans_charge.Acquire(
            ctx, pd.size() * sizeof(int32_t) + pn * sizeof(int32_t),
            "join probe-code translation");
        !st.ok()) {
      slot.Fail(std::move(st));
      return true;
    }
    std::vector<int32_t> trans(pd.size());
    if (same_dict) {
      for (uint32_t code = 0; code < pd.size(); ++code) {
        trans[code] = static_cast<int32_t>(code);
      }
    } else {
      for (uint32_t code = 0; code < pd.size(); ++code) {
        std::optional<uint32_t> t = bd.Find(pd.At(code));
        trans[code] = t.has_value() ? static_cast<int32_t>(*t) : -1;
      }
    }
    // pkeys[i] = build-dictionary code of probe row i, or -1 (NULL or
    // absent from the build dictionary — joins nothing either way).
    std::vector<int32_t> pkeys(pn);
    const simd::Tier tier = simd::ActiveTier();
    const size_t stride = probe.Width();
    const uint32_t* tuples = probe.tuples.data();
    const uint32_t* codes = pc.CodeData();
    const uint8_t* nulls = pc.NullMask();
    const size_t max_row = pc.size();
    bool vec_used = false;
    const bool poll = NeedsPoll(ctx);
    StridedRun(ctx, slot, poll, 0, pn, [&](size_t b, size_t e) {
      vec_used |= simd::TranslateCodes(tier, tuples + b * stride, stride,
                                       pcol.slot, codes, trans.data(), nulls,
                                       max_row, pkeys.data() + b, e - b);
    });
    if (slot.Failed()) return true;
    (vec_used ? Metrics().simd_translate_vector
              : Metrics().simd_translate_scalar)
        ->Add(1);
    const int32_t* pk = pkeys.data();
    run(KeyTag<uint32_t>{}, [](uint32_t k) { return MixInt64(k); }, bkey,
        [pk](size_t i, uint32_t* k) {
          const int32_t t = pk[i];
          if (t < 0) return false;
          *k = static_cast<uint32_t>(t);
          return true;
        });
    return true;
  }

  // Generic fallback (a mixed-encoding key column): owned Value keys with
  // Value hashing/equality, same partitioned structure.
  run(KeyTag<rel::Value>{},
      [](const rel::Value& k) { return k.Hash(); },
      [&](size_t i, rel::Value* k) {
        rel::Value v = bcol.col->ValueAt(build.RowId(bcol, i));
        if (v.is_null()) return false;
        *k = std::move(v);
        return true;
      },
      [&](size_t i, rel::Value* k) {
        rel::Value v = pcol.col->ValueAt(probe.RowId(pcol, i));
        if (v.is_null()) return false;
        *k = std::move(v);
        return true;
      });
  return true;
}

}  // namespace

Executor::Executor(const rel::Database* db, ExecOptions options)
    : db_(db), options_(options) {
  if (options_.threads == 0) options_.threads = DefaultThreadCount();
}

Result<ResultSet> Executor::Execute(const PlanNode& plan,
                                    obs::ProfileNode* parent) const {
  if (options_.engine == ExecEngine::kRowAtATime) {
    return ExecuteRowAtATime(plan, parent);
  }
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult result, ExecuteColumnar(plan, parent));
  GRAPHGEN_FAULT_POINT("query.materialize");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Charge(
      result.NumRows() * result.Width() * sizeof(rel::Value),
      "materialized result values"));
  obs::ProfileNode* prof = OpNode(parent, "materialize_values");
  obs::Span span(prof);
  Result<ResultSet> out = result.Materialize(options_.threads);
  if (prof != nullptr && out.ok()) {
    prof->rows = static_cast<int64_t>(out->NumRows());
  }
  return out;
}

Result<RowIdResult> Executor::ExecuteColumnar(const PlanNode& plan,
                                              obs::ProfileNode* parent) const {
  switch (plan.kind()) {
    case PlanNode::Kind::kScan:
      return ScanColumnar(static_cast<const ScanNode&>(plan), parent);
    case PlanNode::Kind::kHashJoin:
      return JoinColumnar(static_cast<const HashJoinNode&>(plan), parent);
    case PlanNode::Kind::kProject:
      return ProjectColumnar(static_cast<const ProjectNode&>(plan), parent);
  }
  return Status::Internal("unknown plan node type");
}

Result<ResultSet> Executor::ExecuteRowAtATime(const PlanNode& plan,
                                              obs::ProfileNode* parent) const {
  switch (plan.kind()) {
    case PlanNode::Kind::kScan:
      return ScanRows(static_cast<const ScanNode&>(plan), parent);
    case PlanNode::Kind::kHashJoin:
      return JoinRows(static_cast<const HashJoinNode&>(plan), parent);
    case PlanNode::Kind::kProject:
      return ProjectRows(static_cast<const ProjectNode&>(plan), parent);
  }
  return Status::Internal("unknown plan node type");
}

// ---------------------------------------------------------------- columnar

Result<RowIdResult> Executor::ScanColumnar(const ScanNode& node,
                                           obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.scan");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof = OpNode(parent, "scan", node.table());
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(const rel::Table* table,
                            db_->GetTable(node.table()));
  for (const Predicate& p : node.predicates()) {
    if (p.column >= table->NumColumns()) {
      return Status::PlanError("predicate column out of range for table " +
                               node.table());
    }
  }
  for (const SemiJoin& sj : node.semi_joins()) {
    if (sj.column >= table->NumColumns()) {
      return Status::PlanError("semi-join column out of range for table " +
                               node.table());
    }
  }
  const size_t n = table->NumRows();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::Unsupported("table " + node.table() +
                               " exceeds 2^32 rows");
  }
  // Delta scans range the row window to [row_begin, row_end) ∩ [0, n);
  // the full-table default leaves rb = 0, re = n.
  const size_t rb = std::min(node.row_begin(), n);
  const size_t re = std::max(rb, std::min(node.row_end(), n));
  const size_t rows_in = re - rb;
  RowIdResult out;
  out.schema = table->schema();
  out.origins.assign(table->NumColumns(), node.table());
  out.sources = {table};
  out.columns.resize(table->NumColumns());
  for (size_t c = 0; c < table->NumColumns(); ++c) {
    out.columns[c] = {0, static_cast<uint32_t>(c)};
  }
  Metrics().scan_rows_in->Add(rows_in);
  if (node.predicates().empty() && node.semi_joins().empty()) {
    GRAPHGEN_RETURN_NOT_OK(options_.ctx.Charge(rows_in * sizeof(uint32_t),
                                               "scan selection vector"));
    out.tuples.resize(rows_in);
    ParallelFor(
        rows_in,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            out.tuples[i] = static_cast<uint32_t>(rb + i);
          }
        },
        options_.threads);
    Metrics().scan_rows_out->Add(rows_in);
    if (prof != nullptr) {
      prof->rows = static_cast<int64_t>(rows_in);
      prof->AddStat("rows_in", static_cast<double>(rows_in));
    }
    return out;
  }

  // Compile each predicate/filter against its column's physical encoding,
  // then evaluate column-at-a-time over morsel-sized sub-ranges into a
  // byte mask; the in-order collect makes the selection vector identical
  // to a serial scan's for every thread count.
  std::vector<CompiledPredicate> preds;
  preds.reserve(node.predicates().size());
  for (const Predicate& p : node.predicates()) {
    preds.push_back(CompilePredicate(table->column(p.column), p));
  }
  std::vector<CompiledSemiJoin> filters;
  filters.reserve(node.semi_joins().size());
  for (const SemiJoin& sj : node.semi_joins()) {
    filters.push_back(CompileSemiJoin(table->column(sj.column), sj));
  }

  // The keep mask stays table-sized because the compiled kernels index
  // absolute row ids; only [rb, re) is ever evaluated or collected, so a
  // narrow delta window does proportionally little work.
  ScopedCharge keep_charge;
  GRAPHGEN_RETURN_NOT_OK(
      keep_charge.Acquire(options_.ctx, n, "scan keep mask"));
  std::vector<uint8_t> keep(n, 1);
  const size_t ways =
      (options_.threads > 1 && rows_in >= kParallelScanThreshold)
          ? options_.threads
          : 1;
  const bool poll = NeedsPoll(options_.ctx);
  const simd::Tier tier = simd::ActiveTier();
  AbortSlot slot;
  ParallelForRanges(EqualRanges(rows_in, ways), [&](size_t begin, size_t end) {
    for (size_t mb = rb + begin; mb < rb + end; mb += kScanMorselRows) {
      if (poll && !slot.Continue(options_.ctx)) return;
      const size_t me = std::min(rb + end, mb + kScanMorselRows);
      for (const CompiledPredicate& cp : preds) {
        cp.Apply(tier, mb, me, keep.data());
      }
      for (const CompiledSemiJoin& cf : filters) {
        cf.Apply(tier, mb, me, keep.data());
      }
    }
  });
  GRAPHGEN_RETURN_NOT_OK(slot.Take());
  (tier == simd::Tier::kAvx2 ? Metrics().simd_scan_vector
                             : Metrics().simd_scan_scalar)
      ->Add(1);
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Charge(rows_in * sizeof(uint32_t),
                                             "scan selection vector"));
  out.tuples.reserve(rows_in);
  for (size_t i = rb; i < re; ++i) {
    if (keep[i] != 0) out.tuples.push_back(static_cast<uint32_t>(i));
  }
  Metrics().scan_rows_out->Add(out.tuples.size());
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(out.tuples.size());
    prof->AddStat("rows_in", static_cast<double>(rows_in));
    prof->AddStat("predicates", static_cast<double>(node.predicates().size()));
    prof->AddStat("semi_joins", static_cast<double>(node.semi_joins().size()));
    prof->AddStat("morsels", static_cast<double>(
        (rows_in + kScanMorselRows - 1) / kScanMorselRows));
    prof->AddNote("simd", simd::TierName());
  }
  return out;
}

Result<RowIdResult> Executor::JoinColumnar(const HashJoinNode& node,
                                           obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.join.build.alloc");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof = OpNode(parent, "hash_join");
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult left,
                            ExecuteColumnar(node.left(), prof));
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult right,
                            ExecuteColumnar(node.right(), prof));
  if (node.left_col() >= left.schema.NumColumns() ||
      node.right_col() >= right.schema.NumColumns()) {
    return Status::PlanError("join column out of range");
  }
  // Build on the smaller input — the same heuristic as the row engine, so
  // both engines emit identical row order.
  const bool build_left = left.NumRows() <= right.NumRows();
  const RowIdResult& build = build_left ? left : right;
  const RowIdResult& probe = build_left ? right : left;
  // FlatChainTable chains build rows through int32 indices.
  if (build.NumRows() > std::numeric_limits<int32_t>::max()) {
    return Status::Unsupported("join build side exceeds 2^31 rows");
  }
  RowIdResult out;
  out.sources = left.sources;
  out.sources.insert(out.sources.end(), right.sources.begin(),
                     right.sources.end());
  const size_t lw = left.Width();
  out.columns = left.columns;
  for (const ColumnBinding& b : right.columns) {
    out.columns.push_back({static_cast<uint32_t>(b.source + lw), b.column});
  }
  JoinOutputSchema(left.schema, left.origins, right.schema, right.origins,
                   &out.schema, &out.origins);
  const BoundColumn bcol =
      build.Bind(build_left ? node.left_col() : node.right_col());
  const BoundColumn pcol =
      probe.Bind(build_left ? node.right_col() : node.left_col());
  const size_t threads = options_.threads;

  // An impossible key-encoding pair (WithTypedJoinKeys returns false)
  // leaves tuples empty — correct schema/bindings, no rows.
  JoinProfInfo info;
  AbortSlot slot;
  WithTypedJoinKeys(
      build, probe, bcol, pcol, options_.ctx, slot,
      [&](auto tag, auto hash, auto bkey, auto pkey) {
        using Key = typename decltype(tag)::type;
        out.tuples = PartitionedJoin<Key>(left, right, build_left, threads,
                                          hash, bkey, pkey, options_.ctx, slot,
                                          prof != nullptr ? &info : nullptr);
      });
  GRAPHGEN_RETURN_NOT_OK(slot.Take());
  const size_t matches = out.NumRows();
  Metrics().join_build_rows->Add(build.NumRows());
  Metrics().join_probe_rows->Add(probe.NumRows());
  Metrics().join_matches->Add(matches);
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(matches);
    prof->AddStat("build_rows", static_cast<double>(build.NumRows()));
    prof->AddStat("probe_rows", static_cast<double>(probe.NumRows()));
    prof->AddStat("partitions", static_cast<double>(info.partitions));
    if (info.capacity > 0) {
      prof->AddStat("load_factor", static_cast<double>(info.build_keys) /
                                       static_cast<double>(info.capacity));
    }
    prof->AddNote("build_side", build_left ? "left" : "right");
    prof->AddNote("simd", simd::TierName());
  }
  return out;
}

Result<RowIdResult> Executor::ProjectColumnar(const ProjectNode& node,
                                              obs::ProfileNode* parent) const {
  obs::ProfileNode* prof =
      OpNode(parent, node.distinct() ? "project_distinct" : "project");
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(RowIdResult child,
                            ExecuteColumnar(node.child(), prof));
  GRAPHGEN_FAULT_POINT("query.distinct.alloc");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  RowIdResult out;
  GRAPHGEN_RETURN_NOT_OK(ProjectOutputSchema(node, child.schema, child.origins,
                                             &out.schema, &out.origins));
  out.sources = child.sources;
  out.columns.reserve(node.columns().size());
  for (size_t c : node.columns()) out.columns.push_back(child.columns[c]);
  if (!node.distinct()) {
    out.tuples = std::move(child.tuples);
    if (prof != nullptr) prof->rows = static_cast<int64_t>(out.NumRows());
    return out;
  }

  // DISTINCT: keep the first occurrence of every projected key, in input
  // order. Hashing and equality run on the typed base columns (raw int64
  // arrays, dictionary codes) — a row never materializes a Value. Parallel
  // mode partitions rows by key hash; within a partition rows are visited
  // in ascending index order, so each partition's survivors are exactly
  // the globally-first occurrences of its keys, and the index merge
  // reproduces the serial order bit for bit.
  const size_t n = child.NumRows();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::Unsupported("DISTINCT input exceeds 2^32 rows");
  }
  std::vector<DistinctCol> cols;
  cols.reserve(node.columns().size());
  for (size_t c : node.columns()) {
    cols.push_back(DistinctCol::Make(child.Bind(c)));
  }

  const size_t w0 = child.Width();
  // Hash array + first-occurrence slot tables are DISTINCT scratch,
  // refunded when the operator returns; the poll stride keeps an armed
  // deadline responsive even on a single huge partition.
  ScopedCharge scratch;
  GRAPHGEN_RETURN_NOT_OK(scratch.Acquire(
      options_.ctx,
      n * sizeof(uint64_t) +
          FlatTable::CapacityFor(n) * (sizeof(uint32_t) + sizeof(uint8_t)),
      "DISTINCT hash scratch"));
  const bool poll = NeedsPoll(options_.ctx);
  AbortSlot slot;
  std::vector<uint64_t> hashes(n);
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        StridedRun(options_.ctx, slot, poll, begin, end,
                   [&](size_t b, size_t e) {
                     for (size_t i = b; i < e; ++i) {
                       // FNV combine + final avalanche (the flat set masks
                       // low bits).
                       hashes[i] = DistinctHash(cols, &child.tuples[i * w0]);
                     }
                   });
      },
      options_.threads);
  GRAPHGEN_RETURN_NOT_OK(slot.Take());

  std::vector<uint32_t> survivors;
  const size_t partitions =
      (options_.threads > 1 && n >= kParallelDistinctThreshold)
          ? std::min(options_.threads, kMaxPartitions)
          : 1;
  if (partitions == 1) {
    FlatDistinctSet seen(n, hashes, child, cols);
    survivors.reserve(n);
    size_t tick = kCancelStrideRows;
    for (size_t i = 0; i < n; ++i) {
      if (poll && --tick == 0) {
        tick = kCancelStrideRows;
        GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
      }
      if (i + 2 * kProbePrefetchDist < n) {
        seen.PrefetchSlot(static_cast<uint32_t>(i + 2 * kProbePrefetchDist));
      }
      if (i + kProbePrefetchDist < n) {
        seen.WarmProbe(static_cast<uint32_t>(i + kProbePrefetchDist));
      }
      if (seen.Insert(static_cast<uint32_t>(i))) {
        survivors.push_back(static_cast<uint32_t>(i));
      }
    }
  } else {
    std::vector<std::vector<uint32_t>> parts(partitions);
    ParallelInvoke(partitions, [&](size_t p) {
      size_t mine = 0;
      for (size_t i = 0; i < n; ++i) {
        if (hashes[i] % partitions == p) ++mine;
      }
      FlatDistinctSet seen(mine, hashes, child, cols);
      StridedRun(options_.ctx, slot, poll, 0, n, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          if (hashes[i] % partitions != p) continue;
          // Only hint rows this partition will actually probe; a foreign
          // row's slot in our table is never touched.
          const size_t f = i + kProbePrefetchDist;
          if (f < e && hashes[f] % partitions == p) {
            seen.PrefetchSlot(static_cast<uint32_t>(f));
          }
          if (seen.Insert(static_cast<uint32_t>(i))) {
            parts[p].push_back(static_cast<uint32_t>(i));
          }
        }
      });
    });
    GRAPHGEN_RETURN_NOT_OK(slot.Take());
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    survivors.reserve(total);
    for (const auto& part : parts) {
      survivors.insert(survivors.end(), part.begin(), part.end());
    }
    std::sort(survivors.begin(), survivors.end());
  }

  const size_t w = child.Width();
  out.tuples.resize(survivors.size() * w);
  ParallelFor(
      survivors.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const uint32_t* src = &child.tuples[survivors[i] * w];
          std::copy(src, src + w, &out.tuples[i * w]);
        }
      },
      options_.threads);
  Metrics().distinct_rows_in->Add(n);
  Metrics().distinct_rows_out->Add(survivors.size());
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(survivors.size());
    prof->AddStat("distinct_in", static_cast<double>(n));
    prof->AddStat("distinct_partitions", static_cast<double>(partitions));
  }
  return out;
}

// ------------------------------------------------------------ row-at-a-time

Result<ResultSet> Executor::ScanRows(const ScanNode& node,
                                     obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.row.scan");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof = OpNode(parent, "scan", node.table());
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(const rel::Table* table,
                            db_->GetTable(node.table()));
  ResultSet out;
  out.schema = table->schema();
  out.origins.assign(table->NumColumns(), node.table());
  for (const Predicate& p : node.predicates()) {
    if (p.column >= table->NumColumns()) {
      return Status::PlanError("predicate column out of range for table " +
                               node.table());
    }
  }
  for (const SemiJoin& sj : node.semi_joins()) {
    if (sj.column >= table->NumColumns()) {
      return Status::PlanError("semi-join column out of range for table " +
                               node.table());
    }
  }
  const size_t rb = std::min(node.row_begin(), table->NumRows());
  const size_t re =
      std::max(rb, std::min(node.row_end(), table->NumRows()));
  const bool unfiltered =
      node.predicates().empty() && node.semi_joins().empty();
  out.rows.reserve(unfiltered ? re - rb : 0);
  const bool poll = NeedsPoll(options_.ctx);
  for (size_t i = rb; i < re; ++i) {
    if (poll && i % kCancelStrideRows == 0) {
      GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
    }
    rel::Row row = table->row(i);
    bool keep = true;
    for (const Predicate& p : node.predicates()) {
      if (!p.Matches(row)) {
        keep = false;
        break;
      }
    }
    for (const SemiJoin& sj : node.semi_joins()) {
      if (!keep) break;
      if (!sj.keys->Contains(row[sj.column])) keep = false;
    }
    if (keep) out.rows.push_back(std::move(row));
  }
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(out.NumRows());
    prof->AddStat("rows_in", static_cast<double>(re - rb));
  }
  return out;
}

Result<ResultSet> Executor::JoinRows(const HashJoinNode& node,
                                     obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.row.join");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof = OpNode(parent, "hash_join");
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(ResultSet left,
                            ExecuteRowAtATime(node.left(), prof));
  GRAPHGEN_ASSIGN_OR_RETURN(ResultSet right,
                            ExecuteRowAtATime(node.right(), prof));
  if (node.left_col() >= left.schema.NumColumns() ||
      node.right_col() >= right.schema.NumColumns()) {
    return Status::PlanError("join column out of range");
  }

  // Build on the smaller side.
  const bool build_left = left.NumRows() <= right.NumRows();
  const ResultSet& build = build_left ? left : right;
  const ResultSet& probe = build_left ? right : left;
  const size_t build_col = build_left ? node.left_col() : node.right_col();
  const size_t probe_col = build_left ? node.right_col() : node.left_col();

  std::unordered_map<rel::Value, std::vector<size_t>, rel::ValueHash> ht;
  ht.reserve(build.NumRows());
  const bool build_poll = NeedsPoll(options_.ctx);
  for (size_t i = 0; i < build.NumRows(); ++i) {
    if (build_poll && i % kCancelStrideRows == 0) {
      GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
    }
    const rel::Value& key = build.rows[i][build_col];
    if (key.is_null()) continue;  // SQL semantics: NULL joins nothing.
    ht[key].push_back(i);
  }

  ResultSet out;
  JoinOutputSchema(left.schema, left.origins, right.schema, right.origins,
                   &out.schema, &out.origins);
  const bool poll = NeedsPoll(options_.ctx);
  size_t tick = kCancelStrideRows;
  for (const rel::Row& prow : probe.rows) {
    if (poll && --tick == 0) {
      tick = kCancelStrideRows;
      GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
    }
    const rel::Value& key = prow[probe_col];
    if (key.is_null()) continue;
    auto it = ht.find(key);
    if (it == ht.end()) continue;
    for (size_t bi : it->second) {
      const rel::Row& brow = build.rows[bi];
      rel::Row joined;
      joined.reserve(left.schema.NumColumns() + right.schema.NumColumns());
      const rel::Row& lrow = build_left ? brow : prow;
      const rel::Row& rrow = build_left ? prow : brow;
      joined.insert(joined.end(), lrow.begin(), lrow.end());
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      out.rows.push_back(std::move(joined));
    }
  }
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(out.NumRows());
    prof->AddStat("build_rows", static_cast<double>(build.NumRows()));
    prof->AddStat("probe_rows", static_cast<double>(probe.NumRows()));
  }
  return out;
}

Result<ResultSet> Executor::ProjectRows(const ProjectNode& node,
                                        obs::ProfileNode* parent) const {
  GRAPHGEN_FAULT_POINT("query.row.project");
  GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
  obs::ProfileNode* prof =
      OpNode(parent, node.distinct() ? "project_distinct" : "project");
  obs::Span span(prof);
  GRAPHGEN_ASSIGN_OR_RETURN(ResultSet child,
                            ExecuteRowAtATime(node.child(), prof));
  ResultSet out;
  GRAPHGEN_RETURN_NOT_OK(ProjectOutputSchema(node, child.schema, child.origins,
                                             &out.schema, &out.origins));

  std::unordered_set<rel::Row, RowHash> seen;
  if (node.distinct()) seen.reserve(child.NumRows());
  out.rows.reserve(child.NumRows());
  const bool poll = NeedsPoll(options_.ctx);
  size_t tick = kCancelStrideRows;
  for (const rel::Row& row : child.rows) {
    if (poll && --tick == 0) {
      tick = kCancelStrideRows;
      GRAPHGEN_RETURN_NOT_OK(options_.ctx.Check());
    }
    rel::Row projected;
    projected.reserve(node.columns().size());
    for (size_t c : node.columns()) projected.push_back(row[c]);
    if (node.distinct()) {
      if (!seen.insert(projected).second) continue;
    }
    out.rows.push_back(std::move(projected));
  }
  if (prof != nullptr) {
    prof->rows = static_cast<int64_t>(out.NumRows());
    if (node.distinct()) {
      prof->AddStat("distinct_in", static_cast<double>(child.NumRows()));
    }
  }
  return out;
}

}  // namespace graphgen::query
