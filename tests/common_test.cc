#include <gtest/gtest.h>

#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/flat_table.h"
#include "common/hash.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "planner/typed_maps.h"
#include "test_util.h"

namespace graphgen {
namespace {

double benchmark_sink_ = 0;  // defeats optimization in TimerTest

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "Parse error: bad token");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::PlanError("x").code(), StatusCode::kPlanError);
  EXPECT_EQ(Status::ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "hello");
}

TEST(BitmapTest, StartsZeroed) {
  Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_TRUE(bm.AllZero());
  EXPECT_EQ(bm.CountSet(), 0u);
}

TEST(BitmapTest, SetAndGet) {
  Bitmap bm(70);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(69);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_TRUE(bm.Get(63));
  EXPECT_TRUE(bm.Get(64));
  EXPECT_TRUE(bm.Get(69));
  EXPECT_FALSE(bm.Get(1));
  EXPECT_EQ(bm.CountSet(), 4u);
}

TEST(BitmapTest, InitialOnesRespectsSize) {
  Bitmap bm(70, true);
  EXPECT_TRUE(bm.AllOne());
  EXPECT_EQ(bm.CountSet(), 70u);
}

TEST(BitmapTest, ClearAndAssign) {
  Bitmap bm(10, true);
  bm.Clear(3);
  EXPECT_FALSE(bm.Get(3));
  bm.Assign(3, true);
  EXPECT_TRUE(bm.Get(3));
  bm.Assign(3, false);
  EXPECT_FALSE(bm.Get(3));
}

TEST(BitmapTest, FillAndResize) {
  Bitmap bm(65);
  bm.Fill(true);
  EXPECT_EQ(bm.CountSet(), 65u);
  bm.Resize(130);
  EXPECT_EQ(bm.CountSet(), 65u);
  EXPECT_FALSE(bm.Get(100));
}

TEST(BitmapTest, EqualityComparesContent) {
  Bitmap a(64);
  Bitmap b(64);
  EXPECT_EQ(a, b);
  a.Set(5);
  EXPECT_FALSE(a == b);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalRoughMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(13);
  size_t low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextZipf(1000, 1.1);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v <= 10) ++low;
  }
  // Zipf concentrates mass on small values.
  EXPECT_GT(low, n / 4);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ParallelTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(10000);
  for (auto& h : hits) h.store(0);
  ParallelFor(hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SmallInputRunsInline) {
  int calls = 0;
  ParallelFor(10, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, InvokeRunsEachThread) {
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h.store(0);
  ParallelInvoke(4, [&](size_t t) { hits[t].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, BalancedRangesCoverEverything) {
  // Heavily skewed weights: index 0 owns almost all the mass.
  const size_t n = 5000;
  auto weight = [](size_t i) { return i == 0 ? uint64_t{1} << 20 : 1; };
  std::vector<IndexRange> ranges = BalancedRanges(n, weight, 4);
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_EQ(ranges.back().end, n);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);  // contiguous, disjoint
  }
  // The hub must not drag half the uniform tail into its range.
  EXPECT_LE(ranges.front().end, 2u);
}

TEST(ParallelTest, BalancedRangesCollapseWhenLight) {
  std::vector<IndexRange> ranges =
      BalancedRanges(100, [](size_t) { return uint64_t{1}; }, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 100u);
  EXPECT_TRUE(BalancedRanges(0, [](size_t) { return uint64_t{1}; }).empty());
}

TEST(ParallelTest, ForRangesRunsEachRangeOnce) {
  const size_t n = 40000;
  std::vector<IndexRange> ranges =
      BalancedRanges(n, [](size_t) { return uint64_t{1}; }, 4);
  EXPECT_GT(ranges.size(), 1u);
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelForRanges(ranges, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, RunBatchRunsEveryTask) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.RunBatch(std::move(tasks));  // returns only when all tasks ran
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunBatchHandlesEmptyAndSingle) {
  ThreadPool pool(2);
  pool.RunBatch({});
  std::atomic<int> count{0};
  std::vector<std::function<void()>> one;
  one.push_back([&count] { count.fetch_add(1); });
  pool.RunBatch(std::move(one));
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, RunBatchFromInsidePoolTaskDoesNotDeadlock) {
  // The extraction pipeline fans out per-rule queries on the same pool
  // that runs the extraction request. With a single worker, the nested
  // batch can only finish because the submitting task drains it itself.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.Submit([&pool, &count] {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([&count] { count.fetch_add(1); });
    }
    pool.RunBatch(std::move(tasks));
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue is drained
  EXPECT_EQ(count.load(), 50);
}

TEST(MemoryTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(MemoryTest, VectorBytesUsesCapacity) {
  std::vector<uint64_t> v;
  v.reserve(100);
  EXPECT_EQ(VectorBytes(v), 100 * sizeof(uint64_t));
}

TEST(MemoryTest, RssIsPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0u);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  double a = t.Seconds();
  EXPECT_GE(a, 0.0);
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  benchmark_sink_ = x;
  EXPECT_GE(t.Seconds(), a);
}

// ---------------------------------------------------------- flat table core

using testing::CollidingHash;
using testing::UnmixInt64;

// A first-occurrence map on the FlatTable core, shaped like the tree's
// clients: payload arrays sized to capacity, equality as a callable on a
// slot index. Hashes are passed in, so a test controls placement exactly.
class ProbeMap {
 public:
  explicit ProbeMap(size_t n = 0)
      : table_(n),
        keys_(table_.capacity()),
        hashes_(table_.capacity()),
        vals_(table_.capacity()) {}

  // Equality on a slot, as the core's probe takes it. Defined before its
  // uses: a deduced return type must be seen first.
  auto Equal(uint64_t key) const {
    return [this, key](size_t s) { return keys_[s] == key; };
  }

  // The value of `key`'s first offer, and whether this offer inserted it.
  std::pair<int, bool> Offer(uint64_t key, uint64_t h, int val) {
    if (table_.Full()) Grow();
    const FlatTable::Probe p = table_.FindOrInsert(h, Equal(key));
    if (!p.found) {
      keys_[p.slot] = key;
      hashes_[p.slot] = h;
      vals_[p.slot] = val;
    }
    return {vals_[p.slot], !p.found};
  }

  FlatTable::Probe Find(uint64_t key, uint64_t h) const {
    return table_.Find(h, Equal(key));
  }
  int ValueAt(size_t slot) const { return vals_[slot]; }
  const FlatTable& table() const { return table_; }

 private:
  void Grow() {
    const size_t cap = 2 * table_.capacity();
    std::vector<uint64_t> okeys(cap);
    std::vector<uint64_t> ohashes(cap);
    std::vector<int> ovals(cap);
    okeys.swap(keys_);
    ohashes.swap(hashes_);
    ovals.swap(vals_);
    table_.Grow([&](size_t s) { return ohashes[s]; },
                [&](size_t from, size_t to) {
                  keys_[to] = okeys[from];
                  hashes_[to] = ohashes[from];
                  vals_[to] = ovals[from];
                });
  }

  FlatTable table_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<int> vals_;
};

TEST(FlatTableTest, CapacityIsPowerOfTwoAtSevenEighthsLoad) {
  EXPECT_EQ(FlatTable::CapacityFor(0), 16u);
  EXPECT_EQ(FlatTable::CapacityFor(14), 16u);
  EXPECT_EQ(FlatTable::CapacityFor(15), 32u);
  EXPECT_EQ(FlatTable::CapacityFor(56), 64u);
  EXPECT_EQ(FlatTable::CapacityFor(57), 128u);
  FlatTable t(56);
  EXPECT_EQ(t.capacity(), 64u);
  EXPECT_FALSE(t.Full());
}

TEST(FlatTableTest, CollidingRunCrossesGroupsAndWrapsPastTheEnd) {
  // 40 keys, one home slot (60 of 64) and one tag: the run covers slots
  // 60..63 and 0..35, so it crosses two 16-slot group boundaries and wraps
  // past the end; lookups of slots 0..11 from the group at 60 read the
  // mirrored tail tags.
  ProbeMap m(56);
  ASSERT_EQ(m.table().capacity(), 64u);
  constexpr uint64_t kHome = 60;
  constexpr uint64_t kTag = 0x2a;
  for (uint64_t k = 0; k < 40; ++k) {
    const auto [val, inserted] =
        m.Offer(k, CollidingHash(k, kHome, kTag), static_cast<int>(k));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(val, static_cast<int>(k));
  }
  EXPECT_EQ(m.table().capacity(), 64u);
  for (uint64_t k = 0; k < 40; ++k) {
    // Linear-probe placement: the k-th key takes the k-th slot of the run.
    const FlatTable::Probe p = m.Find(k, CollidingHash(k, kHome, kTag));
    ASSERT_TRUE(p.found) << k;
    EXPECT_EQ(p.slot, (kHome + k) % 64) << k;
    EXPECT_EQ(m.ValueAt(p.slot), static_cast<int>(k));
    // A repeat offer finds the first occurrence and keeps its value.
    EXPECT_EQ(m.Offer(k, CollidingHash(k, kHome, kTag), -1),
              std::make_pair(static_cast<int>(k), false));
  }
  // An absent key with the same home and tag walks the whole run and
  // stops at the first empty slot after it.
  const FlatTable::Probe miss = m.Find(1000, CollidingHash(1000, kHome, kTag));
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(miss.slot, (kHome + 40) % 64);
  EXPECT_EQ(m.table().size(), 40u);
}

TEST(FlatTableTest, DistinctKeysWithEqualHashesStayApart) {
  // Equal full hashes (so equal home and tag): equality alone separates
  // the keys.
  ProbeMap m;
  constexpr uint64_t kHash = 0xfe00'0000'0000'000full;
  for (uint64_t k = 0; k < 12; ++k) {
    EXPECT_TRUE(m.Offer(k, kHash, static_cast<int>(k) * 10).second);
  }
  for (uint64_t k = 0; k < 12; ++k) {
    const FlatTable::Probe p = m.Find(k, kHash);
    ASSERT_TRUE(p.found);
    EXPECT_EQ(m.ValueAt(p.slot), static_cast<int>(k) * 10);
  }
  EXPECT_FALSE(m.Find(12, kHash).found);
}

TEST(FlatTableTest, DoublingsKeepMappingsAndFirstOccurrences) {
  // 3000 keys over eight colliding runs (shared low bits survive every
  // doubling up to 2^20 slots) and three tags, from capacity 16.
  auto hash = [](uint64_t k) {
    return CollidingHash(k, (k % 8) * 16 + 3, k % 3);
  };
  ProbeMap m;
  size_t doublings = 0;
  size_t cap = m.table().capacity();
  for (uint64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(m.Offer(k, hash(k), static_cast<int>(k)).second);
    if (m.table().capacity() != cap) {
      EXPECT_EQ(m.table().capacity(), 2 * cap);
      cap = m.table().capacity();
      ++doublings;
      for (uint64_t j = 0; j <= k; ++j) {
        const FlatTable::Probe p = m.Find(j, hash(j));
        ASSERT_TRUE(p.found) << "key " << j << " lost at capacity " << cap;
        ASSERT_EQ(m.ValueAt(p.slot), static_cast<int>(j));
      }
    }
  }
  EXPECT_GE(doublings, 8u);
  EXPECT_LE(8 * m.table().size(), 7 * m.table().capacity());
  for (uint64_t k = 0; k < 3000; ++k) {
    EXPECT_EQ(m.Offer(k, hash(k), -1),
              std::make_pair(static_cast<int>(k), false));
  }
  for (uint64_t k = 3000; k < 3100; ++k) {
    EXPECT_FALSE(m.Find(k, hash(k)).found);
  }
}

TEST(FlatTableTest, UnmixInvertsMixInt64) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t h = rng.Next();
    EXPECT_EQ(MixInt64(UnmixInt64(h)), h);
  }
}

TEST(FlatInt64MapTest, AdversarialKeysKeepTheirIdsAcrossDoublings) {
  // Keys chosen so MixInt64 gives them one home (the last slot, in every
  // capacity up to 2^20: the run wraps past the end at once) and one tag.
  auto key = [](uint64_t i) {
    return static_cast<int64_t>(UnmixInt64(CollidingHash(i, 0xfffff, 0x55)));
  };
  planner::FlatInt64Map map;
  for (uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(map.GetOrInsert(key(i), [&] { return i; }), i);
    for (uint32_t j = 0; j <= i; j += 37) EXPECT_EQ(map.Find(key(j)), j);
  }
  EXPECT_EQ(map.size(), 300u);
  for (uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(map.Find(key(i)), i);
    bool made = false;
    EXPECT_EQ(map.GetOrInsert(key(i), [&] {
      made = true;
      return 0u;
    }), i);
    EXPECT_FALSE(made) << "make() ran for an existing key";
  }
  for (uint64_t i = 300; i < 320; ++i) {
    EXPECT_EQ(map.Find(key(i)), planner::FlatInt64Map::kNotFound);
  }
  std::unordered_set<int64_t> seen;
  map.ForEach([&](int64_t k, uint32_t id) {
    EXPECT_TRUE(seen.insert(k).second);
    EXPECT_EQ(k, key(id));
  });
  EXPECT_EQ(seen.size(), 300u);
}

}  // namespace
}  // namespace graphgen
