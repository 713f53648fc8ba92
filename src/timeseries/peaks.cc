#include "timeseries/peaks.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace dspot {

std::vector<Burst> FindBursts(const Series& residual,
                              const BurstOptions& options) {
  const size_t n = residual.size();
  // Threshold from the positive residual mass only: negative residuals are
  // fitting artifacts, not burst evidence.
  std::vector<double> positive;
  positive.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    if (residual.IsObserved(t)) {
      positive.push_back(std::max(residual[t], 0.0));
    }
  }
  if (positive.empty()) {
    return {};
  }
  const double mu = Mean(positive);
  const double sd = StdDev(positive);
  const double enter = mu + options.threshold_sigmas * std::max(sd, 1e-12);
  const double sustain = enter * options.sustain_fraction;

  std::vector<Burst> bursts;
  size_t t = 0;
  while (t < n) {
    if (!residual.IsObserved(t) || residual[t] < enter) {
      ++t;
      continue;
    }
    Burst b;
    b.start = t;
    b.peak = t;
    b.peak_value = residual[t];
    b.mass = 0.0;
    size_t end = t;
    while (end < n && residual.IsObserved(end) && residual[end] >= sustain &&
           end - b.start < options.max_width) {
      b.mass += residual[end];
      if (residual[end] > b.peak_value) {
        b.peak_value = residual[end];
        b.peak = end;
      }
      ++end;
    }
    b.width = std::max(end - b.start, options.min_width);
    if (b.width >= options.min_width) {
      bursts.push_back(b);
    }
    t = end + 1;
  }
  std::sort(bursts.begin(), bursts.end(), [](const Burst& a, const Burst& b) {
    return a.peak_value > b.peak_value;
  });
  if (bursts.size() > options.max_bursts) {
    bursts.resize(options.max_bursts);
  }
  return bursts;
}

bool HasBurstNear(const std::vector<Burst>& bursts, size_t t,
                  size_t tolerance) {
  for (const Burst& b : bursts) {
    const size_t lo = b.start > tolerance ? b.start - tolerance : 0;
    const size_t hi = b.start + b.width + tolerance;
    if (t >= lo && t < hi) {
      return true;
    }
  }
  return false;
}

bool HasResidualBurst(std::span<const double> actual,
                      std::span<const double> estimate, size_t explained) {
  double sum_sq = 0.0;
  size_t count = 0;
  for (size_t t = 0; t < explained; ++t) {
    if (IsMissing(actual[t])) continue;
    const double r = actual[t] - estimate[t];
    sum_sq += r * r;
    ++count;
  }
  const double sigma =
      count == 0 ? 0.0 : std::sqrt(sum_sq / static_cast<double>(count));
  if (sigma <= 0.0) {
    return true;
  }
  size_t bursting = 0;
  for (size_t t = explained; t < actual.size(); ++t) {
    if (IsMissing(actual[t])) continue;
    if (std::fabs(actual[t] - estimate[t]) > kResidualBurstThreshold * sigma) {
      ++bursting;
    }
  }
  return bursting >= kResidualBurstQuorum;
}

}  // namespace dspot
