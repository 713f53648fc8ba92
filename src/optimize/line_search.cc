#include "optimize/line_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace dspot {

namespace {

/// Shrink-toward-x1 decision for the golden-section bracket. For finite
/// costs this is exactly `f1 <= f2`; a NaN probe must lose to a finite one
/// (NaN compares false under both <= and >, so the plain comparison would
/// silently keep a NaN incumbent whenever it lands in f2).
bool PreferFirstProbe(double f1, double f2) {
  if (std::isnan(f2)) return true;
  if (std::isnan(f1)) return false;
  return f1 <= f2;
}

}  // namespace

double GoldenSectionMinimize(const Scalar1dFn& fn, double lo, double hi,
                             double tolerance, int max_iterations) {
  if (hi < lo) {
    std::swap(lo, hi);
  }
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo, b = hi;
  if (!((b - a) > tolerance)) {
    // The bracket is already collapsed (or its width is NaN): there is
    // nothing to section, so return the better endpoint instead of an
    // interior probe of a degenerate interval.
    const double fa = fn(a);
    const double fb = fn(b);
    return fb < fa ? b : a;
  }
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = fn(x1);
  double f2 = fn(x2);
  for (int i = 0; i < max_iterations && (b - a) > tolerance; ++i) {
    if (PreferFirstProbe(f1, f2)) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = fn(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = fn(x2);
    }
  }
  return PreferFirstProbe(f1, f2) ? x1 : x2;
}

double GridMinimize(const Scalar1dFn& fn, double lo, double hi, size_t steps,
                    const BatchScalar1dFn& batch) {
  if (steps == 0 || hi <= lo) {
    return lo;
  }
  auto point = [&](size_t i) {
    return lo +
           (hi - lo) * static_cast<double>(i) / static_cast<double>(steps);
  };
  std::vector<double> xs;
  std::vector<double> fs;
  if (batch) {
    xs.resize(steps + 1);
    fs.resize(steps + 1);
    for (size_t i = 0; i <= steps; ++i) xs[i] = point(i);
    batch(xs, fs);
  }
  double best_x = lo;
  double best_f = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i <= steps; ++i) {
    const double x = point(i);
    const double f = batch ? fs[i] : fn(x);
    if (std::isfinite(f) && f < best_f) {
      best_f = f;
      best_x = x;
    }
  }
  return best_x;
}

double GridThenGoldenMinimize(const Scalar1dFn& fn, double lo, double hi,
                              size_t grid_steps, double tolerance,
                              const BatchScalar1dFn& batch) {
  const double seed = GridMinimize(fn, lo, hi, grid_steps, batch);
  const double cell = (hi - lo) / static_cast<double>(std::max<size_t>(grid_steps, 1));
  const double a = std::max(lo, seed - cell);
  const double b = std::min(hi, seed + cell);
  return GoldenSectionMinimize(fn, a, b, tolerance);
}

double GuardedMinimize(const Scalar1dFn& fn, double lo, double hi,
                       double current, size_t grid_steps, double tolerance,
                       const BatchScalar1dFn& batch) {
  const double f_current = fn(current);
  const double candidate =
      GridThenGoldenMinimize(fn, lo, hi, grid_steps, tolerance, batch);
  const double f_candidate = fn(candidate);
  if (std::isnan(f_current)) {
    // A NaN incumbent loses any `<` comparison, so the plain guard below
    // would keep it forever; accept any non-NaN candidate instead.
    return std::isnan(f_candidate) ? current : candidate;
  }
  return f_candidate < f_current ? candidate : current;
}

}  // namespace dspot
