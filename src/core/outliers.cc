#include "core/outliers.h"

#include <algorithm>

namespace dspot {

namespace {

/// A location is also an outlier if at least this fraction of its
/// strength cells is zero.
constexpr double kZeroFractionThreshold = 0.9;

}  // namespace

StatusOr<std::vector<LocationReaction>> ScoreLocationReactions(
    const ModelParamSet& params, size_t keyword,
    const OutlierOptions& options) {
  if (keyword >= params.global.size()) {
    return Status::OutOfRange("ScoreLocationReactions: bad keyword index");
  }
  if (!params.has_local()) {
    return Status::FailedPrecondition(
        "ScoreLocationReactions: LocalFit has not run");
  }
  const std::vector<size_t> shock_indices = params.ShockIndicesFor(keyword);
  if (shock_indices.empty()) {
    return Status::FailedPrecondition(
        "ScoreLocationReactions: keyword has no detected events");
  }

  // Global reference level: mean shared strength across the keyword's
  // events (weighted by occurrences).
  double global_sum = 0.0;
  size_t global_cells = 0;
  for (size_t k : shock_indices) {
    const Shock& shock = params.shocks[k];
    for (double s : shock.global_strengths) {
      global_sum += s;
      ++global_cells;
    }
  }
  const double global_mean =
      global_cells == 0 ? 0.0
                        : global_sum / static_cast<double>(global_cells);

  std::vector<LocationReaction> out(params.num_locations);
  for (size_t j = 0; j < params.num_locations; ++j) {
    LocationReaction& r = out[j];
    r.location = j;
    double sum = 0.0;
    size_t cells = 0;
    size_t zeros = 0;
    for (size_t k : shock_indices) {
      const Shock& shock = params.shocks[k];
      for (size_t m = 0; m < shock.local_strengths.rows(); ++m) {
        const double s = j < shock.local_strengths.cols()
                             ? shock.local_strengths(m, j)
                             : 0.0;
        sum += s;
        if (s == 0.0) ++zeros;
        ++cells;
      }
    }
    r.mean_strength = cells == 0 ? 0.0 : sum / static_cast<double>(cells);
    r.participation_ratio =
        global_mean > 0.0 ? r.mean_strength / global_mean : 0.0;
    r.zero_fraction =
        cells == 0 ? 1.0 : static_cast<double>(zeros) / static_cast<double>(cells);
    r.is_outlier = r.participation_ratio < options.participation_threshold ||
                   r.zero_fraction >= kZeroFractionThreshold;
  }
  return out;
}

StatusOr<std::vector<size_t>> FindOutlierLocations(
    const ModelParamSet& params, size_t keyword,
    const OutlierOptions& options) {
  DSPOT_ASSIGN_OR_RETURN(std::vector<LocationReaction> reactions,
                         ScoreLocationReactions(params, keyword, options));
  std::vector<size_t> out;
  for (const LocationReaction& r : reactions) {
    if (r.is_outlier) {
      out.push_back(r.location);
    }
  }
  return out;
}

}  // namespace dspot
