#include "core/simulate.h"

#include <algorithm>

namespace dspot {

namespace {

kernels::SivParams InputParams(const SivInputs& inputs) {
  return {inputs.population, inputs.beta, inputs.delta, inputs.gamma,
          inputs.i0};
}

/// The schedule entries from tick t on; empty once t passes the schedule,
/// where the kernel reads eps = 1 / eta = 0.
std::span<const double> From(const std::vector<double>& schedule, size_t t) {
  return std::span<const double>(schedule).subspan(
      std::min(t, schedule.size()));
}

}  // namespace

SivTrajectory SimulateSivFull(const SivInputs& inputs, size_t n_ticks) {
  SivTrajectory traj;
  traj.susceptible = Series(n_ticks);
  traj.infective = Series(n_ticks);
  traj.vigilant = Series(n_ticks);
  const kernels::SivParams params = InputParams(inputs);
  kernels::SivState state = kernels::SivInitialState(params);
  const std::span<double> infective = traj.infective.mutable_values();
  for (size_t t = 0; t < n_ticks; ++t) {
    traj.susceptible[t] = state.s;
    traj.vigilant[t] = state.v;
    kernels::ResumeSivScalarInto(params, From(inputs.epsilon, t),
                                 From(inputs.eta, t), &state,
                                 infective.subspan(t, 1));
  }
  return traj;
}

Series SimulateSiv(const SivInputs& inputs, size_t n_ticks) {
  Series out(n_ticks);
  kernels::SimulateSivScalarInto(InputParams(inputs), inputs.epsilon,
                                 inputs.eta, out.mutable_values());
  return out;
}

std::vector<double> BuildEta(double growth_rate, size_t growth_start,
                             size_t n_ticks) {
  std::vector<double> eta;
  BuildEtaInto(growth_rate, growth_start, n_ticks, &eta);
  return eta;
}

Series SimulateGlobal(const ModelParamSet& params, size_t keyword,
                      size_t n_ticks) {
  Series out(n_ticks);
  ScheduleCache cache;
  SimulateGlobalInto(params, keyword, &cache, out.mutable_values());
  return out;
}

void SimulateKeywordInto(const KeywordModel& model, ScheduleCache* cache,
                         std::span<double> out) {
  ModelParamSet set;
  set.global = {model.params};
  set.shocks = model.shocks;
  for (Shock& shock : set.shocks) {
    shock.keyword = 0;
  }
  set.num_keywords = 1;
  set.num_locations = 1;
  set.num_ticks = out.size();
  SimulateGlobalInto(set, 0, cache, out);
}

void SimulateGlobalInto(const ModelParamSet& params, size_t keyword,
                        ScheduleCache* cache, std::span<double> out) {
  const KeywordGlobalParams& g = params.global[keyword];
  const size_t n_ticks = out.size();
  const std::span<const double> epsilon =
      cache->GlobalEpsilon(params.shocks, keyword, n_ticks);
  const std::span<const double> eta =
      g.has_growth() ? cache->Eta(g.growth_rate, g.growth_start, n_ticks)
                     : std::span<const double>();
  kernels::SimulateSivScalarInto(KernelParams(g), epsilon, eta, out);
}

Series SimulateLocal(const ModelParamSet& params, size_t keyword,
                     size_t location, size_t n_ticks) {
  Series out(n_ticks);
  ScheduleCache cache;
  SimulateLocalInto(params, keyword, location, &cache, out.mutable_values());
  return out;
}

void SimulateLocalInto(const ModelParamSet& params, size_t keyword,
                       size_t location, ScheduleCache* cache,
                       std::span<double> out) {
  const KeywordGlobalParams& g = params.global[keyword];
  const size_t n_ticks = out.size();
  kernels::SivParams dynamics = KernelParams(g);
  const std::span<const double> epsilon =
      cache->LocalEpsilon(params.shocks, keyword, location, n_ticks);
  std::span<const double> eta;
  if (params.has_local()) {
    const double local_pop = params.base_local(keyword, location);
    dynamics.population = local_pop;
    dynamics.i0 = g.i0 * local_pop / std::max(g.population, 1e-9);
    const double local_growth =
        params.growth_local.empty() ? 0.0
                                    : params.growth_local(keyword, location);
    if (g.has_growth()) {
      eta = cache->Eta(local_growth, g.growth_start, n_ticks);
    }
  } else {
    // LocalFit has not run yet: assume an even population share.
    const double share =
        1.0 / static_cast<double>(std::max<size_t>(params.num_locations, 1));
    dynamics.population = g.population * share;
    dynamics.i0 = g.i0 * share;
    if (g.has_growth()) {
      eta = cache->Eta(g.growth_rate, g.growth_start, n_ticks);
    }
  }
  kernels::SimulateSivScalarInto(dynamics, epsilon, eta, out);
}

}  // namespace dspot
