#ifndef DSPOT_CORE_SHOCK_DETECTION_H_
#define DSPOT_CORE_SHOCK_DETECTION_H_

#include <cstddef>
#include <vector>

#include "core/shock.h"
#include "timeseries/series.h"

namespace dspot {

/// Candidate-shock proposal (the discrete half of the circular dependency
/// Section 4.2.1 describes: a good base fit needs shocks filtered out, a
/// good shock filter needs a base fit). Given the residual of the current
/// model, this module proposes a small set of shock hypotheses anchored at
/// the strongest burst; GLOBALFIT then scores each under MDL.

struct ShockDetectionOptions {
  /// Cyclic hypotheses: minimum admissible period.
  size_t min_period = 4;
  /// Cap on the number of period hypotheses per anchor burst.
  size_t max_period_candidates = 4;
  /// Disables cyclic hypotheses entirely (ablation D2).
  bool allow_cyclic = true;
};

/// Proposes candidate shocks for keyword `keyword` from `residual`
/// (data minus current estimate): always the one-shot shock at the
/// strongest burst, plus one cyclic hypothesis per period that aligns
/// enough bursts with the anchor. Candidate strengths are left at zero —
/// the caller fits them. Returns an empty vector when the residual has no
/// bursts.
std::vector<Shock> ProposeShockCandidates(
    const Series& residual, size_t keyword,
    const ShockDetectionOptions& options = ShockDetectionOptions());

}  // namespace dspot

#endif  // DSPOT_CORE_SHOCK_DETECTION_H_
