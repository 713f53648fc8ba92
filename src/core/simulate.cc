#include "core/simulate.h"

#include <algorithm>
#include <cmath>

#include "kernels/siv_kernel.h"

namespace dspot {

void SimulateSivInto(const SivDynamics& dynamics,
                     std::span<const double> epsilon,
                     std::span<const double> eta, std::span<double> out) {
  // Delegates to the kernel layer's templated recurrence (bit-identical to
  // the historical in-place loop; the template's double instantiation IS
  // that loop). The same template instantiated for kernels::Dual powers
  // the analytic LM Jacobians, and kernels::SimulateSivBatchInto runs the
  // SoA/SIMD form of this recurrence across many simulations at once.
  const kernels::SivParams params{dynamics.population, dynamics.beta,
                                  dynamics.delta, dynamics.gamma,
                                  dynamics.i0};
  kernels::SimulateSivScalarInto(params, epsilon, eta, out);
}

SivTrajectory SimulateSivFull(const SivInputs& inputs, size_t n_ticks) {
  SivTrajectory traj;
  traj.susceptible = Series(n_ticks);
  traj.infective = Series(n_ticks);
  traj.vigilant = Series(n_ticks);

  const double n = std::max(inputs.population, 1e-9);
  double i = std::clamp(inputs.i0, 0.0, n);
  double s = n - i;
  double v = 0.0;
  const double delta = std::clamp(inputs.delta, 0.0, 1.0);
  const double gamma = std::clamp(inputs.gamma, 0.0, 1.0);

  for (size_t t = 0; t < n_ticks; ++t) {
    traj.susceptible[t] = s;
    traj.infective[t] = i;
    traj.vigilant[t] = v;

    const double eps =
        t < inputs.epsilon.size() ? inputs.epsilon[t] : 1.0;
    const double eta = t < inputs.eta.size() ? inputs.eta[t] : 0.0;
    const double raw_infect =
        inputs.beta * (s / n) * eps * i * (1.0 + eta);
    const double infect = std::clamp(raw_infect, 0.0, s);
    const double recover = delta * i;
    const double wane = gamma * v;

    s += wane - infect;
    i += infect - recover;
    v += recover - wane;
  }
  return traj;
}

Series SimulateSiv(const SivInputs& inputs, size_t n_ticks) {
  Series out(n_ticks);
  const SivDynamics dynamics{inputs.population, inputs.beta, inputs.delta,
                             inputs.gamma, inputs.i0};
  SimulateSivInto(dynamics, inputs.epsilon, inputs.eta, out.mutable_values());
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
  const SivDynamics dynamics{g.population, g.beta, g.delta, g.gamma, g.i0};
  const std::span<const double> epsilon =
      cache->GlobalEpsilon(params.shocks, keyword, n_ticks);
  const std::span<const double> eta =
      g.has_growth() ? cache->Eta(g.growth_rate, g.growth_start, n_ticks)
                     : std::span<const double>();
  SimulateSivInto(dynamics, epsilon, eta, out);
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
  SivDynamics dynamics;
  dynamics.beta = g.beta;
  dynamics.delta = g.delta;
  dynamics.gamma = g.gamma;
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
  SimulateSivInto(dynamics, epsilon, eta, out);
}

}  // namespace dspot
