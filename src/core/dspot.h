#ifndef DSPOT_CORE_DSPOT_H_
#define DSPOT_CORE_DSPOT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/forecast.h"
#include "core/global_fit.h"
#include "core/local_fit.h"
#include "core/params.h"
#include "tensor/activity_tensor.h"
#include "timeseries/series.h"

namespace dspot {

/// Top-level options for the full Δ-SPOT pipeline (Algorithm 1). The model
/// is parameter-free in the paper's sense: every field has a sensible
/// default driven by the MDL criterion, and nothing here trades accuracy
/// against correctness — only compute budget. FitDspot passes `global` and
/// `local` to their stages as given, except for the pipeline-wide
/// `num_threads` and guard (built from `time_budget_ms` and `cancel`),
/// which it writes over theirs.
struct DspotOptions {
  GlobalFitOptions global;
  LocalFitOptions local;
  /// Skip LOCALFIT (e.g. for single-location tensors or global-only use).
  bool fit_local = true;
  /// Wall-clock budget for the whole pipeline, milliseconds; 0 = none.
  /// FitDspot builds one Deadline from this and threads it through
  /// GLOBALFIT, LOCALFIT, and every solver they run. When the budget runs
  /// out the fit returns OK with the best partial model found so far and
  /// result.health.termination == kDeadlineExceeded, within a small
  /// multiple of the budget (checks sit at solver-iteration granularity).
  double time_budget_ms = 0.0;
  /// Cooperative cancellation for the whole pipeline. Unlike a deadline,
  /// cancellation is an abort: FitDspot returns Status::Cancelled and no
  /// partial result. Inert by default.
  CancellationToken cancel;
  /// Threads for the whole pipeline: keywords and each keyword's shock
  /// candidates fit concurrently in GLOBALFIT, and locations concurrently
  /// in LOCALFIT. 0 = hardware concurrency, 1 = fully serial. FitDspot copies this value over
  /// `global.num_threads` and `local.num_threads`, so it is the single
  /// knob to set. The fit is bit-identical at any thread count — results
  /// land in pre-assigned slots and reductions stay in index order — so
  /// this trades only wall-clock, never output.
  size_t num_threads = 0;
};

/// The result of fitting Δ-SPOT on an activity tensor.
struct DspotResult {
  /// The complete parameter set F = {B_G, B_L, R_G, R_L, S}.
  ModelParamSet params;
  /// Per-keyword fitted global sequences and their RMSE (Fig. 5-style
  /// summaries).
  std::vector<Series> global_estimates;
  std::vector<double> global_rmse;
  /// Eq. (2) total code length of the final model.
  double total_cost_bits = 0.0;
  /// One Status per keyword: OK for fitted keywords, the fit error for
  /// keywords skipped under KeywordErrorPolicy::kSkipAndReport.
  std::vector<Status> keyword_status;
  /// Aggregated pipeline health: rounds, LM divergence restarts, wall
  /// time, and the most severe termination across all stages.
  /// health.termination == kDeadlineExceeded marks a partial fit produced
  /// under an exhausted time budget.
  FitHealth health;

  /// True iff every keyword fit cleanly (keyword_status has no errors).
  bool AllKeywordsOk() const;

  /// Fitted local sequence for (keyword, location).
  Series LocalEstimate(size_t keyword, size_t location) const;

  /// Shocks detected for `keyword`, as human-readable strings.
  std::vector<std::string> DescribeShocks(size_t keyword) const;
};

/// Δ-SPOT: fits the full model to a tensor — GLOBALFIT per keyword, then
/// LOCALFIT across locations (Algorithm 1).
StatusOr<DspotResult> FitDspot(const ActivityTensor& tensor,
                               const DspotOptions& options = DspotOptions());

/// Convenience: fits a single sequence (d = 1, l = 1) with the
/// single-sequence model of Section 3.2 and returns the same result type.
StatusOr<DspotResult> FitDspotSingle(
    const Series& sequence, const DspotOptions& options = DspotOptions());

}  // namespace dspot

#endif  // DSPOT_CORE_DSPOT_H_
