#include "timeseries/metrics.h"

#include <algorithm>
#include <cmath>

namespace dspot {

double Rmse(const Series& actual, const Series& estimate) {
  return Rmse(std::span<const double>(actual.values()),
              std::span<const double>(estimate.values()));
}

double Rmse(std::span<const double> actual, std::span<const double> estimate) {
  const size_t n = std::min(actual.size(), estimate.size());
  RmseAccumulator acc;
  for (size_t t = 0; t < n; ++t) acc.Add(actual[t], estimate[t]);
  return acc.Value();
}

double Rmse(const std::vector<double>& actual,
            const std::vector<double>& estimate) {
  return Rmse(std::span<const double>(actual), std::span<const double>(estimate));
}

double Mae(const Series& actual, const Series& estimate) {
  const size_t n = std::min(actual.size(), estimate.size());
  double sum = 0.0;
  size_t count = 0;
  for (size_t t = 0; t < n; ++t) {
    if (IsMissing(actual[t]) || IsMissing(estimate[t])) continue;
    sum += std::fabs(actual[t] - estimate[t]);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double NormalizedRmse(const Series& actual, const Series& estimate) {
  const double range = actual.MaxValue() - actual.MinValue();
  if (!(range > 0.0)) {
    return 0.0;
  }
  return Rmse(actual, estimate) / range;
}

double RSquared(const Series& actual, const Series& estimate) {
  const size_t n = std::min(actual.size(), estimate.size());
  const double mu = actual.MeanValue();
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t t = 0; t < n; ++t) {
    if (IsMissing(actual[t]) || IsMissing(estimate[t])) continue;
    ss_res += Square(actual[t] - estimate[t]);
    ss_tot += Square(actual[t] - mu);
  }
  if (ss_tot <= 0.0) {
    return ss_res <= 0.0 ? 1.0 : 0.0;
  }
  return 1.0 - ss_res / ss_tot;
}

}  // namespace dspot
