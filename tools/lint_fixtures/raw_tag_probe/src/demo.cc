// A hand-rolled tag probe outside common/flat_table.h: the linter keeps
// every open-addressing table on the one FlatTable core.
#include <cstdint>

#include "common/simd.h"

namespace demo {
bool HomeGroupHasTag(const uint8_t* tags, uint64_t h) {
  return graphgen::simd::TagMatch16(tags, graphgen::simd::TagOfHash(h)) != 0;
}
}  // namespace demo
