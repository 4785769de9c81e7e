#ifndef GRAPHGEN_TESTS_TEST_UTIL_H_
#define GRAPHGEN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "gen/condensed_generator.h"
#include "graph/graph.h"
#include "graph/storage.h"

namespace graphgen::testing {

/// Inverse of MixInt64: every step of the SplitMix64 finalizer is a
/// bijection, so a test can choose the exact hash a key will get and build
/// adversarial collision sets for the flat hash tables.
inline uint64_t UnmixInt64(uint64_t h) {
  auto unxorshift = [](uint64_t y, int s) {
    uint64_t x = y;
    for (int i = 0; i <= 64 / s; ++i) x = y ^ (x >> s);
    return x;
  };
  // Newton's iteration for the inverse of an odd constant mod 2^64.
  auto inverse = [](uint64_t c) {
    uint64_t inv = c;
    for (int i = 0; i < 5; ++i) inv *= 2 - c * inv;
    return inv;
  };
  uint64_t x = unxorshift(h, 31) * inverse(0x94d049bb133111ebull);
  x = unxorshift(x, 27) * inverse(0xbf58476d1ce4e5b9ull);
  return unxorshift(x, 30) - 0x9e3779b97f4a7c15ull;
}

/// The i-th of a family of distinct hashes that all share their low 20
/// bits (`low`, so they claim the same home slot in any table of up to 2^20
/// slots) and their top 7 bits (`tag`, so every probe candidate's tag
/// matches): one occupied run with no tag filtering.
inline uint64_t CollidingHash(uint64_t i, uint64_t low, uint64_t tag) {
  return (tag << 57) | (i << 20) | (low & ((uint64_t{1} << 20) - 1));
}

/// Adds real node u as a symmetric member of virtual node v.
inline void AddMember(CondensedStorage& g, NodeId u, uint32_t v) {
  g.AddEdge(NodeRef::Real(u), NodeRef::Virtual(v));
  g.AddEdge(NodeRef::Virtual(v), NodeRef::Real(u));
}

/// Builds the Figure 1 toy DBLP graph: 5 authors, 3 pubs,
/// memberships p1 = {a1, a2, a3, a4}, p2 = {a1, a3, a4}, p3 = {a4, a5}.
/// (The a1--a4 pair is duplicated through p1 and p2.)
inline CondensedStorage MakeFigure1Graph() {
  CondensedStorage g;
  g.AddRealNodes(5);  // a1 .. a5 are ids 0 .. 4
  uint32_t p1 = g.AddVirtualNode();
  uint32_t p2 = g.AddVirtualNode();
  uint32_t p3 = g.AddVirtualNode();
  for (NodeId a : {0, 1, 2, 3}) AddMember(g, a, p1);
  for (NodeId a : {0, 2, 3}) AddMember(g, a, p2);
  for (NodeId a : {3, 4}) AddMember(g, a, p3);
  return g;
}

/// A symmetric single-layer condensed graph from the Appendix C.1
/// generator, seeded for determinism.
inline CondensedStorage MakeRandomSymmetric(size_t reals, size_t virtuals,
                                            double mean, uint64_t seed) {
  gen::CondensedGenOptions o;
  o.num_real = reals;
  o.num_virtual = virtuals;
  o.mean_size = mean;
  o.sd_size = mean / 3;
  o.seed = seed;
  return gen::GenerateCondensed(o);
}

/// Sorted, unique expanded edge set of any Graph implementation.
inline std::vector<std::pair<NodeId, NodeId>> EdgeSetOf(const Graph& g) {
  return g.ExpandedEdgeSet();
}

/// Asserts helper: true iff iterating neighbors of every vertex yields no
/// duplicates and no self loops (the DEDUP-1 / BITMAP invariant).
inline bool IsDuplicateFree(const Graph& g) {
  bool clean = true;
  g.ForEachVertex([&](NodeId u) {
    std::set<NodeId> seen;
    g.ForEachNeighbor(u, [&](NodeId v) {
      if (v == u || !seen.insert(v).second) clean = false;
    });
  });
  return clean;
}

}  // namespace graphgen::testing

#endif  // GRAPHGEN_TESTS_TEST_UTIL_H_
