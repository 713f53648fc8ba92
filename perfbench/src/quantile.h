#ifndef PERFBENCH_QUANTILE_H_
#define PERFBENCH_QUANTILE_H_

// Nearest-rank quantiles for the benchmark's timing samples.
//
// A reported percentile is only as good as the samples beyond it: the
// p99 of 100 samples is decided by a single value. So a Summary reports
// the median plus the highest standard percentile that still has at least
// kMinTailSamples samples beyond it, and always carries the sample count.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must have strictly beyond its rank.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (p in (0, 1]) of an ascending-sorted sample:
/// the value at 1-based rank ceil(p * n). Returns 0 for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps p * n that is an integer in exact arithmetic (0.99 *
  // 100) from rounding up to the next rank through floating-point error.
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank position of percentile p.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  /// Highest of p99.9/p99/p95/p90/p75 with >= kMinTailSamples beyond it;
  /// tail_pct == 0 when no such percentile exists (fewer than 14 samples).
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Sorts `samples` in place and summarizes them.
inline Summary Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  Summary s;
  s.count = samples->size();
  s.p50 = NearestRank(*samples, 0.50);
  for (const double p : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (SamplesBeyond(s.count, p) >= kMinTailSamples) {
      s.tail_pct = p * 100.0;
      s.tail = NearestRank(*samples, p);
      break;
    }
  }
  return s;
}

/// Median of a copy (for small per-repeat series such as setup times).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.50);
}

}  // namespace perfbench

#endif  // PERFBENCH_QUANTILE_H_
