#ifndef DSPOT_OPTIMIZE_NELDER_MEAD_H_
#define DSPOT_OPTIMIZE_NELDER_MEAD_H_

#include <vector>

#include "common/statusor.h"
#include "guard/guard.h"
#include "optimize/objective.h"

namespace dspot {

/// Configuration for the Nelder-Mead simplex solver.
struct NelderMeadOptions {
  int max_evaluations = 2000;
  /// Deadline/cancellation pair, checked once per simplex iteration. On
  /// deadline expiry the search returns OK with its best vertex and
  /// health.termination == kDeadlineExceeded; on cancellation it returns
  /// Status::Cancelled. Inactive by default.
  GuardContext guard;
};

/// Result of a Nelder-Mead minimization.
struct NelderMeadResult {
  std::vector<double> params;
  double final_value = 0.0;
  int evaluations = 0;
  bool converged = false;
  /// Wall time and why the search stopped.
  FitHealth health;
};

/// Minimizes a scalar function with the Nelder-Mead downhill-simplex method.
/// Used where derivatives are unreliable (the TBATS smoothing-parameter fit
/// and discrete-ish shock refinements). Box constraints are enforced by
/// clamping proposed vertices. Infeasible regions should return +inf.
StatusOr<NelderMeadResult> NelderMead(
    const ScalarFn& fn, const std::vector<double>& initial,
    const Bounds& bounds = Bounds(),
    const NelderMeadOptions& options = NelderMeadOptions());

}  // namespace dspot

#endif  // DSPOT_OPTIMIZE_NELDER_MEAD_H_
