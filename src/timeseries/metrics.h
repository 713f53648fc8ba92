#ifndef DSPOT_TIMESERIES_METRICS_H_
#define DSPOT_TIMESERIES_METRICS_H_

#include <cmath>
#include <span>
#include <vector>

#include "common/math_util.h"
#include "timeseries/series.h"

namespace dspot {

/// Fit/forecast quality metrics. All skip positions where the actual value
/// is missing, and compare over min(actual.size(), estimate.size()) ticks.

/// Root-mean-square error — the headline accuracy metric of the paper
/// (Fig. 9).
double Rmse(const Series& actual, const Series& estimate);

/// Mean absolute error.
double Mae(const Series& actual, const Series& estimate);

/// Normalized RMSE: RMSE divided by the observed range of `actual`
/// (max - min); 0 when the range is degenerate.
double NormalizedRmse(const Series& actual, const Series& estimate);

/// Coefficient of determination R^2 (can be negative for bad fits).
double RSquared(const Series& actual, const Series& estimate);

/// Rmse as a running sum over (actual, estimate) pairs. Pairs added in
/// tick order give exactly Rmse's value (Rmse is this fold), so a sum
/// carried to some tick can be continued from there bit for bit.
struct RmseAccumulator {
  double sum = 0.0;
  size_t count = 0;

  void Add(double actual, double estimate) {
    if (IsMissing(actual) || IsMissing(estimate)) return;
    sum += Square(actual - estimate);
    ++count;
  }
  double Value() const {
    return count == 0 ? 0.0 : std::sqrt(sum / static_cast<double>(count));
  }
};

/// Span / vector forms used internally. Same floating-point sequence as
/// the Series overload, so results are bit-identical.
double Rmse(std::span<const double> actual, std::span<const double> estimate);
double Rmse(const std::vector<double>& actual,
            const std::vector<double>& estimate);

}  // namespace dspot

#endif  // DSPOT_TIMESERIES_METRICS_H_
