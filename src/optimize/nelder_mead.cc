#include "optimize/nelder_mead.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "guard/fault_injector.h"
#include "obs/metrics.h"

namespace dspot {

namespace {

/// Stop when the spread of objective values across the simplex is below
/// this (absolute).
constexpr double kFTolerance = 1e-10;
/// Stop when the simplex diameter (infinity norm) is below this.
constexpr double kXTolerance = 1e-10;
/// Relative size of the initial simplex around the start point.
constexpr double kInitialStep = 0.1;
/// Standard reflection/expansion/contraction/shrink coefficients.
constexpr double kReflection = 1.0;
constexpr double kExpansion = 2.0;
constexpr double kContraction = 0.5;
constexpr double kShrink = 0.5;

}  // namespace

StatusOr<NelderMeadResult> NelderMead(const ScalarFn& fn,
                                      const std::vector<double>& initial,
                                      const Bounds& bounds,
                                      const NelderMeadOptions& options) {
  const size_t n = initial.size();
  if (n == 0) {
    return Status::InvalidArgument("NelderMead: empty parameters");
  }
  if (!bounds.empty() && (bounds.lower.size() != n || bounds.upper.size() != n)) {
    return Status::InvalidArgument("NelderMead: bounds size mismatch");
  }

  DSPOT_SPAN("nelder_mead.solve");
  DSPOT_COUNT("nelder_mead.solves", 1);
  const auto start_time = std::chrono::steady_clock::now();
  NelderMeadResult result;
  auto eval = [&](std::vector<double>* p) -> double {
    bounds.Clamp(p);
    ++result.evaluations;
    const double v = fn(*p);
    return std::isfinite(v) ? v : std::numeric_limits<double>::infinity();
  };

  // Build the initial simplex: start point plus one perturbed vertex per
  // dimension.
  std::vector<std::vector<double>> simplex;
  std::vector<double> values;
  {
    std::vector<double> p0 = initial;
    values.push_back(eval(&p0));
    simplex.push_back(std::move(p0));
    for (size_t j = 0; j < n; ++j) {
      std::vector<double> p = simplex[0];
      const double h = kInitialStep * std::max(1.0, std::fabs(p[j]));
      p[j] += h;
      values.push_back(eval(&p));
      simplex.push_back(std::move(p));
    }
  }

  std::vector<size_t> order(n + 1);
  std::iota(order.begin(), order.end(), 0);

  while (result.evaluations < options.max_evaluations) {
    if (options.guard.active() || FaultInjector::Instance().armed()) {
      Status guard_status = options.guard.Check("NelderMead");
      if (!guard_status.ok()) {
        if (guard_status.code() == StatusCode::kCancelled) {
          return guard_status;
        }
        result.health.termination = FitTermination::kDeadlineExceeded;
        break;
      }
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return values[a] < values[b]; });
    const size_t best = order[0];
    const size_t worst = order[n];
    const size_t second_worst = order[n - 1];

    // Convergence: objective spread and simplex diameter.
    const double spread = values[worst] - values[best];
    double diameter = 0.0;
    for (size_t j = 0; j < n; ++j) {
      double lo = simplex[0][j], hi = simplex[0][j];
      for (size_t v = 1; v <= n; ++v) {
        lo = std::min(lo, simplex[v][j]);
        hi = std::max(hi, simplex[v][j]);
      }
      diameter = std::max(diameter, hi - lo);
    }
    if (spread < kFTolerance || diameter < kXTolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all vertices except the worst.
    std::vector<double> centroid(n, 0.0);
    for (size_t v = 0; v <= n; ++v) {
      if (v == worst) continue;
      for (size_t j = 0; j < n; ++j) {
        centroid[j] += simplex[v][j];
      }
    }
    for (double& c : centroid) {
      c /= static_cast<double>(n);
    }

    auto blend = [&](double coef) {
      std::vector<double> p(n);
      for (size_t j = 0; j < n; ++j) {
        p[j] = centroid[j] + coef * (centroid[j] - simplex[worst][j]);
      }
      return p;
    };

    std::vector<double> reflected = blend(kReflection);
    const double f_reflected = eval(&reflected);

    if (f_reflected < values[best]) {
      // Try to expand further in the same direction.
      std::vector<double> expanded = blend(kExpansion);
      const double f_expanded = eval(&expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = std::move(expanded);
        values[worst] = f_expanded;
      } else {
        simplex[worst] = std::move(reflected);
        values[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected < values[second_worst]) {
      simplex[worst] = std::move(reflected);
      values[worst] = f_reflected;
      continue;
    }
    // Contract toward the centroid.
    std::vector<double> contracted = blend(-kContraction);
    const double f_contracted = eval(&contracted);
    if (f_contracted < values[worst]) {
      simplex[worst] = std::move(contracted);
      values[worst] = f_contracted;
      continue;
    }
    // Shrink the whole simplex toward the best vertex.
    for (size_t v = 0; v <= n; ++v) {
      if (v == best) continue;
      for (size_t j = 0; j < n; ++j) {
        simplex[v][j] =
            simplex[best][j] +
            kShrink * (simplex[v][j] - simplex[best][j]);
      }
      values[v] = eval(&simplex[v]);
    }
  }

  const size_t best = *std::min_element(
      order.begin(), order.end(),
      [&](size_t a, size_t b) { return values[a] < values[b]; });
  result.params = simplex[best];
  result.final_value = values[best];
  result.health.iterations = result.evaluations;
  if (result.health.termination != FitTermination::kDeadlineExceeded) {
    result.health.termination = result.converged
                                    ? FitTermination::kConverged
                                    : FitTermination::kMaxIterations;
  }
  result.health.wall_time_ms = ElapsedMs(start_time);
  DSPOT_COUNT("nelder_mead.evaluations",
              static_cast<uint64_t>(result.evaluations));
  return result;
}

}  // namespace dspot
