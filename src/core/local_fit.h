#ifndef DSPOT_CORE_LOCAL_FIT_H_
#define DSPOT_CORE_LOCAL_FIT_H_

#include "common/status.h"
#include "core/params.h"
#include "guard/guard.h"
#include "tensor/activity_tensor.h"

namespace dspot {

/// LOCALFIT (Algorithm 3): given the global-level parameter set produced by
/// GLOBALFIT, fits per-location parameters — the potential population
/// b^(L)_ij (B_L), the local growth rate r^(L)_ij (R_L), and the
/// per-occurrence local shock strengths s^(L) — by coordinate descent under
/// the MDL criterion. Shock *times* stay shared across locations; only the
/// participation strengths are local, which is exactly the paper's notion
/// of area specificity (P2).
struct LocalFitOptions {
  /// Coordinate-descent sweeps over all (keyword, location) pairs.
  int max_rounds = 2;
  /// Worker threads for fitting a keyword's locations concurrently
  /// (0 = hardware concurrency, 1 = serial). Location fits within a round
  /// only read the shared global parameters and write location-disjoint
  /// slots, and the round cost is reduced in location order, so the fit
  /// is bit-identical at any thread count. FitDspot plumbs
  /// DspotOptions::num_threads through this field.
  size_t num_threads = 1;
  /// Deadline/cancellation pair, checked before every per-location fit.
  /// On deadline expiry the remaining locations keep their warm-start
  /// values (volume-share initialization on the first round) and the call
  /// returns OK with health.termination == kDeadlineExceeded; on
  /// cancellation it returns Status::Cancelled. Inactive by default.
  GuardContext guard;
};

/// Fills `params->base_local`, `params->growth_local` and every shock's
/// `local_strengths` from the tensor. `params` must contain the global fit
/// for the same tensor (dimensions are checked). When `health` is
/// non-null it receives sweep count, wall time, and the termination
/// reason (kDeadlineExceeded marks a partially refined local model).
Status LocalFit(const ActivityTensor& tensor, ModelParamSet* params,
                const LocalFitOptions& options = LocalFitOptions(),
                FitHealth* health = nullptr);

}  // namespace dspot

#endif  // DSPOT_CORE_LOCAL_FIT_H_
