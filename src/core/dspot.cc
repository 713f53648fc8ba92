#include "core/dspot.h"

#include <span>
#include <vector>

#include "core/cost.h"
#include "core/simulate.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "timeseries/metrics.h"

namespace dspot {

Series DspotResult::LocalEstimate(size_t keyword, size_t location) const {
  return SimulateLocal(params, keyword, location, params.num_ticks);
}

std::vector<std::string> DspotResult::DescribeShocks(size_t keyword) const {
  std::vector<std::string> out;
  for (const Shock& shock : params.shocks) {
    if (shock.keyword == keyword) {
      out.push_back(shock.ToString());
    }
  }
  return out;
}

bool DspotResult::AllKeywordsOk() const {
  for (const Status& status : keyword_status) {
    if (!status.ok()) return false;
  }
  return true;
}

StatusOr<DspotResult> FitDspot(const ActivityTensor& tensor,
                               const DspotOptions& options) {
  DSPOT_SPAN("fit_dspot");
  DSPOT_COUNT("fit_dspot.calls", 1);
  // num_threads is the pipeline-wide knob: it overrides whatever the
  // sub-option structs carry so callers configure one field, not three.
  // The guard works the same way: one deadline/token pair, built here,
  // shared by every stage (a per-stage budget would let a slow GLOBALFIT
  // starve LOCALFIT without the total ever looking over budget).
  GuardContext guard;
  guard.deadline = options.time_budget_ms > 0.0
                       ? Deadline::AfterMillis(options.time_budget_ms)
                       : Deadline::Infinite();
  guard.cancel = options.cancel;

  GlobalFitOptions global_options = options.global;
  global_options.num_threads = options.num_threads;
  global_options.guard = guard;
  LocalFitOptions local_options = options.local;
  local_options.num_threads = options.num_threads;
  local_options.guard = guard;

  DspotResult result;
  {
    DSPOT_SPAN("fit_dspot.global_fit");
    FitHealth global_health;
    DSPOT_ASSIGN_OR_RETURN(
        result.params, GlobalFit(tensor, global_options,
                                 &result.keyword_status, &global_health));
    result.health.Merge(global_health);
  }
  if (options.fit_local && tensor.num_locations() > 1) {
    DSPOT_SPAN("fit_dspot.local_fit");
    FitHealth local_health;
    DSPOT_RETURN_IF_ERROR(
        LocalFit(tensor, &result.params, local_options, &local_health));
    result.health.Merge(local_health);
  }
  DSPOT_SPAN("fit_dspot.estimate");
  const size_t d = tensor.num_keywords();
  result.global_estimates.resize(d);
  result.global_rmse.resize(d);
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  ParallelFor(d, popts, [&](size_t i) {
    Series estimate(tensor.num_ticks());
    ScheduleCache cache;
    SimulateGlobalInto(result.params, i, &cache, estimate.mutable_values());
    std::vector<double> actual(tensor.num_ticks());
    tensor.GlobalSequenceInto(i, actual);
    result.global_rmse[i] =
        Rmse(std::span<const double>(actual),
             std::span<const double>(estimate.values()));
    result.global_estimates[i] = std::move(estimate);
  });
  CostWorkspace cost_workspace;
  result.total_cost_bits = TotalCostBits(tensor, result.params,
                                         &cost_workspace);
  DSPOT_GAUGE_SET("fit_dspot.total_cost_bits", result.total_cost_bits);
  return result;
}

StatusOr<DspotResult> FitDspotSingle(const Series& sequence,
                                     const DspotOptions& options) {
  ActivityTensor tensor(1, 1, sequence.size());
  DSPOT_RETURN_IF_ERROR(tensor.SetLocalSequence(0, 0, sequence));
  DspotOptions single_options = options;
  single_options.fit_local = false;
  return FitDspot(tensor, single_options);
}

}  // namespace dspot
