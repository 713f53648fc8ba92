#include "snapshot/update.h"

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cost.h"
#include "core/global_fit.h"
#include "core/local_fit.h"
#include "core/schedule_cache.h"
#include "core/simulate.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "timeseries/metrics.h"
#include "timeseries/peaks.h"

namespace dspot {

StatusOr<ActivityTensor> ConcatTicks(const ActivityTensor& base,
                                     const ActivityTensor& extra,
                                     size_t extra_first_tick) {
  if (base.num_keywords() != extra.num_keywords() ||
      base.num_locations() != extra.num_locations()) {
    return Status::InvalidArgument(
        "ConcatTicks: append tensor is " +
        std::to_string(extra.num_keywords()) + "x" +
        std::to_string(extra.num_locations()) + " but the base tensor is " +
        std::to_string(base.num_keywords()) + "x" +
        std::to_string(base.num_locations()));
  }
  for (size_t i = 0; i < base.num_keywords(); ++i) {
    if (base.keywords()[i] != extra.keywords()[i]) {
      return Status::InvalidArgument(
          "ConcatTicks: append keyword " + std::to_string(i) + " is '" +
          extra.keywords()[i] + "' but the base tensor has '" +
          base.keywords()[i] + "'");
    }
  }
  for (size_t j = 0; j < base.num_locations(); ++j) {
    if (base.locations()[j] != extra.locations()[j]) {
      return Status::InvalidArgument(
          "ConcatTicks: append location " + std::to_string(j) + " is '" +
          extra.locations()[j] + "' but the base tensor has '" +
          base.locations()[j] + "'");
    }
  }
  // A declared placement must be exactly one past the base range: below it
  // the append re-delivers ticks the base already holds, above it the
  // stitched axis would invent unobserved ticks.
  if (extra_first_tick != kNpos && extra_first_tick < base.num_ticks()) {
    return Status::InvalidArgument(
        "ConcatTicks: append tensor starts at tick " +
        std::to_string(extra_first_tick) + " but the base tensor already " +
        "covers ticks [0, " + std::to_string(base.num_ticks()) +
        ") — duplicate or out-of-order ticks cannot be appended");
  }
  if (extra_first_tick != kNpos && extra_first_tick > base.num_ticks()) {
    return Status::InvalidArgument(
        "ConcatTicks: append tensor starts at tick " +
        std::to_string(extra_first_tick) + " but the base tensor ends at tick " +
        std::to_string(base.num_ticks()) +
        " — the gap of " +
        std::to_string(extra_first_tick - base.num_ticks()) +
        " tick(s) has no observations");
  }
  ActivityTensor out(base.num_keywords(), base.num_locations(),
                     base.num_ticks() + extra.num_ticks());
  for (size_t i = 0; i < base.num_keywords(); ++i) {
    DSPOT_RETURN_IF_ERROR(out.SetKeywordName(i, base.keywords()[i]));
  }
  for (size_t j = 0; j < base.num_locations(); ++j) {
    DSPOT_RETURN_IF_ERROR(out.SetLocationName(j, base.locations()[j]));
  }
  for (size_t i = 0; i < base.num_keywords(); ++i) {
    for (size_t j = 0; j < base.num_locations(); ++j) {
      for (size_t t = 0; t < base.num_ticks(); ++t) {
        out.at(i, j, t) = base.at(i, j, t);
      }
      for (size_t t = 0; t < extra.num_ticks(); ++t) {
        out.at(i, j, base.num_ticks() + t) = extra.at(i, j, t);
      }
    }
  }
  return out;
}

StatusOr<UpdateResult> UpdateFit(const ModelSnapshot& model,
                                 const ActivityTensor& tensor,
                                 const DspotOptions& options) {
  DSPOT_SPAN("update_fit");
  DSPOT_COUNT("update_fit.calls", 1);
  const ModelParamSet& old = model.params;
  const size_t d = tensor.num_keywords();
  const size_t old_n = old.num_ticks;
  const size_t new_n = tensor.num_ticks();
  if (d != old.num_keywords || d != old.global.size()) {
    return Status::InvalidArgument(
        "UpdateFit: tensor has " + std::to_string(d) +
        " keywords but the model was fit on " +
        std::to_string(old.num_keywords));
  }
  if (tensor.num_locations() != old.num_locations) {
    return Status::InvalidArgument(
        "UpdateFit: tensor has " + std::to_string(tensor.num_locations()) +
        " locations but the model was fit on " +
        std::to_string(old.num_locations));
  }
  if (new_n < old_n) {
    return Status::InvalidArgument(
        "UpdateFit: tensor spans " + std::to_string(new_n) +
        " ticks but the model was fit on " + std::to_string(old_n) +
        " — updates only append, never shrink");
  }

  GuardContext guard;
  guard.deadline = options.time_budget_ms > 0.0
                       ? Deadline::AfterMillis(options.time_budget_ms)
                       : Deadline::Infinite();
  guard.cancel = options.cancel;

  GlobalFitOptions global_options = options.global;
  global_options.num_threads = options.num_threads;
  global_options.guard = guard;
  global_options.warm_start = nullptr;  // UpdateFit seeds refits itself

  UpdateResult update;
  update.appended_ticks = new_n - old_n;
  update.redetected.assign(d, false);

  // Phase 1: per keyword, extrapolate the old model over the appended
  // window and decide whether its cached shock schedule still explains
  // the new data (burst test). This is read-only on the old model, so
  // keywords run concurrently; the verdicts land in pre-assigned slots.
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  popts.cancel = guard.cancel;
  std::vector<double> actual_storage(d * new_n);
  // Byte-per-keyword verdicts: vector<bool> packs bits, and adjacent-bit
  // writes from concurrent workers would race.
  std::vector<uint8_t> burst_verdict(d, 0);
  ParallelFor(d, popts, [&](size_t i) {
    std::span<double> actual(actual_storage.data() + i * new_n, new_n);
    tensor.GlobalSequenceInto(i, actual);
    const Series extrapolated = SimulateGlobal(old, i, new_n);
    burst_verdict[i] =
        HasResidualBurst(actual, extrapolated.values(), old_n) ? 1 : 0;
  });
  for (size_t i = 0; i < d; ++i) {
    update.redetected[i] = burst_verdict[i] != 0;
  }
  if (guard.cancel.cancelled()) {
    return Status::Cancelled("UpdateFit: cancelled");
  }

  // Phase 2: warm refit every keyword. Quiet keywords reuse the cached
  // schedule — the shock cap is pinned at the current inventory, so the
  // alternation re-optimizes strengths and base parameters but proposes
  // no new events. Bursting keywords refit with detection wide open.
  DspotResult& result = update.result;
  ModelParamSet& params = result.params;
  params.num_keywords = d;
  params.num_locations = tensor.num_locations();
  params.num_ticks = new_n;
  std::vector<StatusOr<GlobalSequenceFit>> fits =
      ParallelTryMap<GlobalSequenceFit>(d, popts, [&](size_t i) {
        const KeywordModel previous = old.KeywordModelFor(i);
        GlobalFitOptions keyword_options = global_options;
        if (!update.redetected[i]) {
          keyword_options.max_shocks_per_keyword = previous.shocks.size();
        } else {
          DSPOT_COUNT("update_fit.keywords_redetected", 1);
        }
        return RefitGlobalSequence(tensor.GlobalSequence(i), i, d, previous,
                                   keyword_options);
      });
  if (guard.cancel.cancelled()) {
    return Status::Cancelled("UpdateFit: cancelled");
  }
  result.keyword_status.reserve(d);
  params.global.reserve(d);
  for (StatusOr<GlobalSequenceFit>& fit : fits) {
    result.keyword_status.push_back(fit.status());
    if (!fit.ok()) {
      if (global_options.on_keyword_error == KeywordErrorPolicy::kFail) {
        return fit.status();
      }
      params.global.push_back(KeywordGlobalParams());
      continue;
    }
    result.health.Merge(fit->health);
    params.global.push_back(fit->params);
    for (Shock& shock : fit->shocks) {
      params.shocks.push_back(std::move(shock));
    }
  }

  if (options.fit_local && tensor.num_locations() > 1) {
    LocalFitOptions local_options = options.local;
    local_options.num_threads = options.num_threads;
    local_options.guard = guard;
    FitHealth local_health;
    DSPOT_RETURN_IF_ERROR(
        LocalFit(tensor, &params, local_options, &local_health));
    result.health.Merge(local_health);
  }

  result.global_estimates.resize(d);
  result.global_rmse.resize(d);
  ParallelFor(d, popts, [&](size_t i) {
    Series estimate(new_n);
    ScheduleCache cache;
    SimulateGlobalInto(params, i, &cache, estimate.mutable_values());
    std::span<const double> actual(actual_storage.data() + i * new_n, new_n);
    result.global_rmse[i] =
        Rmse(actual, std::span<const double>(estimate.values()));
    result.global_estimates[i] = std::move(estimate);
  });
  CostWorkspace cost_workspace;
  result.total_cost_bits = TotalCostBits(tensor, params, &cost_workspace);
  size_t total_redetected = 0;
  for (size_t i = 0; i < d; ++i) {
    total_redetected += update.redetected[i] ? 1u : 0u;
  }
  DSPOT_GAUGE_SET("update_fit.redetected_fraction",
                  d == 0 ? 0.0
                         : static_cast<double>(total_redetected) /
                               static_cast<double>(d));
  return update;
}

}  // namespace dspot
