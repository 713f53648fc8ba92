#ifndef DSPOT_CORE_OUTLIERS_H_
#define DSPOT_CORE_OUTLIERS_H_

#include <cstddef>
#include <vector>

#include "common/statusor.h"
#include "core/params.h"

namespace dspot {

/// Outlier-country analysis (the paper's Fig. 8 story, as an API): after
/// LOCALFIT, a location's reaction to a keyword's events is quantified by
/// its s^(L) participation strengths relative to the event's shared
/// strength; countries with near-zero participation are outliers relative
/// to the global trend.

struct LocationReaction {
  size_t location = 0;
  /// Mean local strength across all events/occurrences of the keyword.
  double mean_strength = 0.0;
  /// mean_strength / the keyword's mean shared strength (1.0 = exactly the
  /// global reaction level, 0 = no reaction at all).
  double participation_ratio = 0.0;
  /// Fraction of (event, occurrence) cells with zero local strength.
  double zero_fraction = 1.0;
  bool is_outlier = false;
};

struct OutlierOptions {
  /// A location is an outlier if its participation ratio falls below this.
  double participation_threshold = 0.25;
};

/// Scores every location's reaction to `keyword`'s events. Requires a
/// LocalFit'd parameter set with at least one shock for the keyword;
/// returns FailedPrecondition otherwise. Results are ordered by location
/// index.
StatusOr<std::vector<LocationReaction>> ScoreLocationReactions(
    const ModelParamSet& params, size_t keyword,
    const OutlierOptions& options = OutlierOptions());

/// Convenience: indices of the outlier locations only.
StatusOr<std::vector<size_t>> FindOutlierLocations(
    const ModelParamSet& params, size_t keyword,
    const OutlierOptions& options = OutlierOptions());

}  // namespace dspot

#endif  // DSPOT_CORE_OUTLIERS_H_
