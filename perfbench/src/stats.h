#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of a sample (mean of the two middle values when the size is
/// even); 0 for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a fraction `q` of the samples at or below it.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples of an ascending sample strictly greater than `value`.
inline size_t CountAbove(const std::vector<double>& sorted, double value) {
  return static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
}

/// A tail percentile is reported only when at least `min_beyond` samples
/// lie strictly above it; with fewer it is one or two outliers, not a tail.
inline bool TailReportable(const std::vector<double>& sorted, double q,
                           size_t min_beyond = 10) {
  return !sorted.empty() && CountAbove(sorted, Percentile(sorted, q)) >= min_beyond;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
