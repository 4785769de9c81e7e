#ifndef GRAPHGEN_PLANNER_TYPED_MAPS_H_
#define GRAPHGEN_PLANNER_TYPED_MAPS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/hash.h"
#include "relational/value.h"

namespace graphgen::planner {

/// Flat open-addressing map from int64 keys to 32-bit ids on the shared
/// FlatTable core (tag-probed, power-of-two capacity, no per-node
/// allocation). Per slot: key + id + the core's tag byte; the hash is
/// recomputed on growth rather than cached. Insert-only — exactly the
/// shape of the node-id and virtual-id tables. Shared between the
/// extractor's assembly loop and the incremental patch path (which carries
/// these tables across extractions as part of its persistent state).
/// Iteration order follows slot layout and is not part of the contract.
class FlatInt64Map {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  FlatInt64Map() : keys_(table_.capacity()), vals_(table_.capacity()) {}

  uint32_t Find(int64_t key) const {
    const FlatTable::Probe p =
        table_.Find(Hash(key), [&](size_t s) { return keys_[s] == key; });
    return p.found ? vals_[p.slot] : kNotFound;
  }

  // Existing id of `key`, or the result of make() (invoked exactly once,
  // only for a new key).
  template <typename Make>
  uint32_t GetOrInsert(int64_t key, Make make) {
    if (table_.Full()) Grow();
    const FlatTable::Probe p = table_.FindOrInsert(
        Hash(key), [&](size_t s) { return keys_[s] == key; });
    if (!p.found) {
      keys_[p.slot] = key;
      vals_[p.slot] = make();
    }
    return vals_[p.slot];
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (table_.Occupied(i)) fn(keys_[i], vals_[i]);
    }
  }

  /// Mutable visit: fn(key, id&) may rewrite the stored id (the canonical
  /// virtual-node renumbering does). Keys must not be changed.
  template <typename Fn>
  void ForEachMutable(Fn fn) {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (table_.Occupied(i)) fn(keys_[i], vals_[i]);
    }
  }

  size_t size() const { return table_.size(); }

  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(int64_t) +
           vals_.capacity() * sizeof(uint32_t) + table_.MemoryBytes();
  }

 private:
  static uint64_t Hash(int64_t key) {
    return MixInt64(static_cast<uint64_t>(key));
  }

  void Grow() {
    const size_t cap = 2 * table_.capacity();
    std::vector<int64_t> okeys(cap);
    std::vector<uint32_t> ovals(cap);
    okeys.swap(keys_);
    ovals.swap(vals_);
    table_.Grow([&](size_t s) { return Hash(okeys[s]); },
                [&](size_t from, size_t to) {
                  keys_[to] = okeys[from];
                  vals_[to] = ovals[from];
                });
  }

  FlatTable table_;
  std::vector<int64_t> keys_;
  std::vector<uint32_t> vals_;
};

struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Key → id table bucketed by physical type, replacing the former
/// unordered_map<Value, id>. Value equality never crosses
/// int64/double/string, so bucketing by type preserves the Value-map
/// semantics exactly: integer keys live in a flat open-addressing table,
/// string keys in a heterogeneous-lookup map (probed by dictionary entry
/// without copying), and doubles/exotics in the Value fallback.
struct TypedIdMap {
  FlatInt64Map ints;
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      strings;
  std::unordered_map<rel::Value, uint32_t, rel::ValueHash> others;

  size_t size() const {
    return ints.size() + strings.size() + others.size();
  }

  std::optional<uint32_t> FindString(std::string_view s) const {
    auto it = strings.find(s);
    if (it == strings.end()) return std::nullopt;
    return it->second;
  }

  // Find by dynamically typed key; `v` must not be NULL.
  std::optional<uint32_t> FindValue(const rel::Value& v) const {
    switch (v.type()) {
      case rel::ValueType::kInt64: {
        const uint32_t id = ints.Find(v.AsInt64());
        if (id == FlatInt64Map::kNotFound) return std::nullopt;
        return id;
      }
      case rel::ValueType::kString:
        return FindString(v.AsString());
      default: {
        auto it = others.find(v);
        if (it == others.end()) return std::nullopt;
        return it->second;
      }
    }
  }

  // Existing id of `v`, or make() (invoked exactly once for a new key).
  template <typename Make>
  uint32_t GetOrInsertValue(const rel::Value& v, Make make) {
    switch (v.type()) {
      case rel::ValueType::kInt64:
        return ints.GetOrInsert(v.AsInt64(), make);
      case rel::ValueType::kString: {
        auto it = strings.find(std::string_view(v.AsString()));
        if (it != strings.end()) return it->second;
        const uint32_t id = make();
        strings.emplace(v.AsString(), id);
        return id;
      }
      default: {
        auto it = others.find(v);
        if (it != others.end()) return it->second;
        const uint32_t id = make();
        others.emplace(v, id);
        return id;
      }
    }
  }

  size_t MemoryBytes() const {
    size_t total = ints.MemoryBytes();
    for (const auto& [s, id] : strings) {
      (void)id;
      total += s.capacity() + 48;
    }
    total += others.size() * 64;
    return total;
  }
};

}  // namespace graphgen::planner

#endif  // GRAPHGEN_PLANNER_TYPED_MAPS_H_
