#ifndef DSPOT_OPTIMIZE_LINE_SEARCH_H_
#define DSPOT_OPTIMIZE_LINE_SEARCH_H_

#include <cstddef>
#include <functional>
#include <span>

namespace dspot {

/// A scalar function of a single variable.
using Scalar1dFn = std::function<double(double)>;

/// The same function at several abscissae in one call: fs[k] = f(xs[k]).
/// Lets a caller evaluate a whole grid at once (e.g. SIMD across grid
/// points); it must return exactly what the scalar function returns.
using BatchScalar1dFn =
    std::function<void(std::span<const double> xs, std::span<double> fs)>;

/// Golden-section search for the minimum of a unimodal function on [lo, hi].
/// Returns the abscissa of the minimum; runs until the bracket shrinks below
/// `tolerance` or `max_iterations` passes.
double GoldenSectionMinimize(const Scalar1dFn& fn, double lo, double hi,
                             double tolerance = 1e-8,
                             int max_iterations = 200);

/// Evaluates `fn` at `steps`+1 evenly spaced points on [lo, hi] and returns
/// the abscissa of the best one. Robust to multimodality; used to seed
/// golden-section refinement for discrete-ish parameters such as the growth
/// onset time t_eta. Non-finite values never win; ties go to the first
/// point. With `batch` set, the grid is evaluated in one batch call
/// instead of point by point, with the same result.
double GridMinimize(const Scalar1dFn& fn, double lo, double hi, size_t steps,
                    const BatchScalar1dFn& batch = {});

/// Grid scan followed by golden-section refinement around the best cell.
/// `batch` serves the grid scan (see GridMinimize).
double GridThenGoldenMinimize(const Scalar1dFn& fn, double lo, double hi,
                              size_t grid_steps, double tolerance = 1e-8,
                              const BatchScalar1dFn& batch = {});

/// Monotone-safe 1-d minimization: grid + golden refinement, but returns
/// `current` unchanged unless the candidate is strictly better. Use this in
/// coordinate-descent loops where the objective may be multimodal — a
/// plain golden-section can otherwise *worsen* the incumbent.
double GuardedMinimize(const Scalar1dFn& fn, double lo, double hi,
                       double current, size_t grid_steps = 24,
                       double tolerance = 1e-6,
                       const BatchScalar1dFn& batch = {});

}  // namespace dspot

#endif  // DSPOT_OPTIMIZE_LINE_SEARCH_H_
