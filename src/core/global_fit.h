#ifndef DSPOT_CORE_GLOBAL_FIT_H_
#define DSPOT_CORE_GLOBAL_FIT_H_

#include <cstddef>
#include <vector>

#include "common/statusor.h"
#include "core/params.h"
#include "core/shock_detection.h"
#include "guard/guard.h"
#include "mdl/mdl.h"
#include "tensor/activity_tensor.h"
#include "timeseries/series.h"

namespace dspot {

/// What GlobalFit does with a keyword whose fit returns an error.
enum class KeywordErrorPolicy {
  /// Propagate the error of the lowest failing keyword (the default, and
  /// the historical behavior): one bad keyword fails the whole fit.
  kFail = 0,
  /// Keep going: failed keywords get default parameters and no shocks,
  /// their Status is recorded in the per-keyword report, and the overall
  /// fit succeeds with the keywords that did fit. Cancellation still
  /// fails the whole fit (it is caller-initiated, not data-driven).
  kSkipAndReport,
};

/// GLOBALFIT (Algorithm 2): per keyword, alternates Levenberg-Marquardt
/// fitting of the base (B_G) and growth (R_G) parameters with greedy,
/// MDL-gated external-shock detection, until the total code length stops
/// improving.
struct GlobalFitOptions {
  /// Outer alternation rounds (base/growth fit <-> shock detection).
  int max_outer_rounds = 4;
  /// Cap on shocks per keyword (the MDL gate usually stops earlier).
  size_t max_shocks_per_keyword = 8;
  /// Shock proposal knobs.
  ShockDetectionOptions detection;
  /// Number of grid points for the growth-onset (t_eta) search.
  size_t growth_grid = 24;
  /// Upper bound for the growth rate eta_0 and shock strength eps_0.
  double max_growth_rate = 4.0;
  double max_shock_strength = 50.0;
  /// Ablation switches (Fig. 4): disable the growth effect / the external
  /// shock machinery.
  bool allow_growth = true;
  bool allow_shocks = true;
  /// Minimum relative MDL improvement for accepting a richer model.
  double min_cost_decrease = 1e-4;
  /// Minimum relative RMSE improvement for the *optimistic* acceptance of
  /// a shock or growth term during forward search (strict MDL pruning
  /// still runs afterwards; see TryAddShock in the implementation).
  double min_rmse_decrease = 0.02;
  /// Backward pruning drops a shock unless keeping it saves at least this
  /// many bits. With Gaussian coding and an ML-estimated sigma, a tiny
  /// noise-fitting comb can "save" a couple of bits on a long sequence;
  /// real event trains save tens to hundreds. Kept small so genuine events
  /// on short sequences (e.g. 92-tick memes) survive.
  double prune_slack_bits = 4.0;
  /// Data-coding model for Cost_C (Gaussian is the paper's choice; the
  /// Poisson code is a count-aware alternative, ablated in
  /// bench_ablation_coding).
  CodingModel coding_model = CodingModel::kGaussian;
  /// Ablation hook (bench_ablation_mdl): return the last greedy state of
  /// the alternation instead of the MDL-optimal snapshot. Never enable in
  /// production use — it disables the parsimony guarantee.
  bool return_final_state = false;
  /// Worker threads for fitting keywords concurrently in GlobalFit
  /// (0 = hardware concurrency, 1 = serial). Each keyword's GLOBALFIT is
  /// independent and results are assembled in keyword order, so the fit
  /// is bit-identical at any thread count. FitDspot plumbs
  /// DspotOptions::num_threads through this field.
  size_t num_threads = 1;
  /// Deadline/cancellation pair, checked at alternation-round and
  /// shock-addition boundaries (and inside every LM solve). On deadline
  /// expiry the fit returns OK with its best-so-far model and
  /// health.termination == kDeadlineExceeded; on cancellation it returns
  /// Status::Cancelled. Inactive by default, in which case the checks are
  /// a single relaxed atomic load.
  GuardContext guard;
  /// Error policy for GlobalFit's per-keyword loop (see KeywordErrorPolicy).
  KeywordErrorPolicy on_keyword_error = KeywordErrorPolicy::kFail;
  /// Optional warm start. When non-null, keywords present in this set are
  /// fit via RefitGlobalSequence seeded from its parameters and shocks —
  /// skipping the cold multi-start/MDL grid search — and keywords beyond
  /// it fall back to a cold fit. The pointee must outlive the call; the
  /// tensor must span at least `warm_start->num_ticks` ticks. Null (the
  /// default) leaves the cold path bit-identical to builds without this
  /// field. Typically loaded from a ModelSnapshot (src/snapshot).
  const ModelParamSet* warm_start = nullptr;
};

/// Result of fitting one global sequence: the keyword's model (fit_ticks
/// is the sequence length, shocks carry the fit's keyword) plus what only
/// the fit itself knows.
struct GlobalSequenceFit : KeywordModel {
  Series estimate;  ///< fitted I(t) over the training range
  /// Rounds run, LM divergence restarts taken, wall time, and why the
  /// alternation stopped (kDeadlineExceeded marks a partial fit).
  FitHealth health;
};

/// Fits Model 1 to a single global sequence x-bar_i. `keyword` tags the
/// produced shocks; `num_keywords` enters the shock description cost.
StatusOr<GlobalSequenceFit> FitGlobalSequence(
    const Series& data, size_t keyword, size_t num_keywords,
    const GlobalFitOptions& options = GlobalFitOptions());

/// Incremental (streaming) refit: given a model of a prefix of `data`
/// (its first `previous.fit_ticks` ticks; InvalidArgument if `data` is
/// shorter) and the now-longer sequence, warm-starts from the previous
/// parameters — cyclic shocks are extended with fresh occurrences at
/// their shared strength — and runs a short alternation. Much cheaper
/// than a cold fit and stable across updates; new events in the appended
/// range are still detected.
StatusOr<GlobalSequenceFit> RefitGlobalSequence(
    const Series& data, size_t keyword, size_t num_keywords,
    const KeywordModel& previous,
    const GlobalFitOptions& options = GlobalFitOptions());

/// Runs GLOBALFIT over every keyword of the tensor and assembles the
/// global half of the parameter set (B_G, R_G, S at the global level).
///
/// When `keyword_status` is non-null it receives one Status per keyword
/// (OK for fitted keywords). When `health` is non-null it receives the
/// merged FitHealth of every keyword fit. Under
/// `options.on_keyword_error == kSkipAndReport`, per-keyword errors do
/// not fail the call: failed keywords keep default parameters and are
/// reported through `keyword_status` instead. Cancellation always fails
/// the call with Status::Cancelled.
StatusOr<ModelParamSet> GlobalFit(
    const ActivityTensor& tensor,
    const GlobalFitOptions& options = GlobalFitOptions(),
    std::vector<Status>* keyword_status = nullptr,
    FitHealth* health = nullptr);

}  // namespace dspot

#endif  // DSPOT_CORE_GLOBAL_FIT_H_
