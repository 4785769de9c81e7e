#ifndef GRAPHGEN_COMMON_FLAT_TABLE_H_
#define GRAPHGEN_COMMON_FLAT_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simd.h"

namespace graphgen {

/// The slot-placement core shared by every open-addressing hash table in
/// the tree: the join build chains and DISTINCT first-occurrence sets of
/// the executor, and the planner's int64 id maps. It owns placement only —
/// a power-of-two capacity and one 7-bit tag per slot (simd::TagOfHash;
/// simd::kTagEmpty marks a free slot). Callers keep their own per-slot
/// payload arrays (keys, row ids, chain heads), sized to capacity() and
/// indexed by the slot numbers this class hands out, and decide key
/// equality with a callable on a slot index. The table stores no keys and
/// no hashes.
///
/// Probing compares 16 tags per step (simd::TagMatch16: SSE2 on every
/// x86-64 CPU, a portable loop elsewhere), so every build and every
/// dispatch tier runs the same code. Candidates are visited in
/// linear-probe order and the walk stops at the first empty slot: a key
/// lands in, and is found at, the first free slot of its probe sequence.
/// The first 15 tags are mirrored past the end so a group load never
/// wraps. Capacity starts at 16 and doubles at 7/8 load; group probing
/// stays cheap in the long occupied runs that load produces.
class FlatTable {
 public:
  static constexpr size_t kMinCapacity = 16;

  /// Smallest capacity that holds n keys at or below 7/8 load. Memory
  /// charges for a table presized to n keys are priced from this.
  static size_t CapacityFor(size_t n) {
    size_t cap = kMinCapacity;
    while (7 * cap < 8 * n) cap <<= 1;
    return cap;
  }

  /// Where a probe ended: the slot holding the key (found), or the first
  /// empty slot of the key's probe sequence (not found).
  struct Probe {
    size_t slot;
    bool found;
  };

  /// Sized to hold n keys without growing.
  explicit FlatTable(size_t n = 0) { Reset(CapacityFor(n)); }

  size_t capacity() const { return mask_ + 1; }
  size_t size() const { return size_; }
  bool Occupied(size_t slot) const { return tags_[slot] != simd::kTagEmpty; }
  /// True when one more insert could push load past 7/8. Growable callers
  /// check it before FindOrInsert and Grow first.
  bool Full() const { return size_ >= grow_at_; }
  size_t MemoryBytes() const { return tags_.capacity(); }

  /// Probes for the key hashed to h; eq(slot) decides whether an occupied
  /// slot whose tag matches holds it.
  template <typename Eq>
  Probe Find(uint64_t h, Eq eq) const {
    const uint8_t tag = simd::TagOfHash(h);
    size_t pos = h & mask_;
    for (;;) {
      uint32_t empty = 0;
      for (uint32_t match = Candidates(pos, tag, &empty); match != 0;
           match &= match - 1) {
        const size_t slot = Lane(pos, match);
        if (eq(slot)) return {slot, true};
      }
      if (empty != 0) return {Lane(pos, empty), false};
      pos = (pos + simd::kTagGroupWidth) & mask_;
    }
  }

  /// Find, and on a miss claim the returned empty slot for h. The caller
  /// fills its payload at `slot` when `found` is false. The table must not
  /// be Full().
  template <typename Eq>
  Probe FindOrInsert(uint64_t h, Eq eq) {
    const Probe p = Find(h, eq);
    if (!p.found) Claim(p.slot, simd::TagOfHash(h));
    return p;
  }

  /// Doubles capacity and re-places every occupied slot. hash_of(old_slot)
  /// returns the hash of the key there, and move(old_slot, new_slot)
  /// relocates its payload; the caller swaps in payload arrays of the new
  /// capacity (2 * capacity()) beforehand. Stored keys are pairwise
  /// distinct, so each lands in the first empty slot of its probe sequence
  /// and no equality test is needed.
  template <typename HashOf, typename Move>
  void Grow(HashOf hash_of, Move move) {
    std::vector<uint8_t> old;
    old.swap(tags_);
    const size_t old_cap = mask_ + 1;
    Reset(2 * old_cap);
    for (size_t i = 0; i < old_cap; ++i) {
      if (old[i] == simd::kTagEmpty) continue;
      const size_t slot =
          Find(hash_of(i), [](size_t) { return false; }).slot;
      Claim(slot, old[i]);
      move(i, slot);
    }
  }

  /// Cache hint for a future probe of h: pulls its home tag group and the
  /// caller's payload entry at the home slot.
  template <typename T>
  void Prefetch(uint64_t h, const T* payload) const {
    const size_t pos = h & mask_;
    __builtin_prefetch(payload + pos);
    __builtin_prefetch(tags_.data() + pos);
  }

  /// Visits the slots in h's home group that Find would test, for
  /// prefetching their records. Read-only, and only a hint: a candidate in
  /// a later group is skipped.
  template <typename Fn>
  void ForEachHomeCandidate(uint64_t h, Fn fn) const {
    const size_t pos = h & mask_;
    uint32_t empty = 0;
    for (uint32_t match = Candidates(pos, simd::TagOfHash(h), &empty);
         match != 0; match &= match - 1) {
      fn(Lane(pos, match));
    }
  }

 private:
  static constexpr size_t kMirror = simd::kTagGroupWidth - 1;

  void Reset(size_t cap) {
    tags_.assign(cap + kMirror, simd::kTagEmpty);
    mask_ = cap - 1;
    grow_at_ = cap - cap / 8;
    size_ = 0;
  }

  void Claim(size_t slot, uint8_t tag) {
    tags_[slot] = tag;
    if (slot < kMirror) tags_[mask_ + 1 + slot] = tag;
    ++size_;
  }

  // Tag matches in the group at pos, keeping only lanes before the first
  // empty one: linear probing would have claimed that empty slot before
  // placing the key any further along. *empty receives the empty lanes.
  uint32_t Candidates(size_t pos, uint8_t tag, uint32_t* empty) const {
    const uint8_t* group = tags_.data() + pos;
    *empty = simd::TagEmpty16(group);
    const uint32_t match = simd::TagMatch16(group, tag);
    if (*empty == 0) return match;
    return match & ((*empty & (~*empty + 1u)) - 1u);
  }

  // Slot of the lowest set lane of `bits` in the group at pos.
  size_t Lane(size_t pos, uint32_t bits) const {
    return (pos + static_cast<size_t>(std::countr_zero(bits))) & mask_;
  }

  std::vector<uint8_t> tags_;  // capacity + kMirror bytes
  uint64_t mask_ = 0;
  size_t grow_at_ = 0;
  size_t size_ = 0;
};

}  // namespace graphgen

#endif  // GRAPHGEN_COMMON_FLAT_TABLE_H_
