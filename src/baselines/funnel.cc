#include "baselines/funnel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "mdl/mdl.h"
#include "optimize/levenberg_marquardt.h"
#include "optimize/line_search.h"
#include "timeseries/metrics.h"
#include "timeseries/peaks.h"

namespace dspot {

namespace {

/// FitFunnel's caps: shocks accepted, and base-fit / shock-search
/// alternation rounds.
constexpr size_t kMaxShocks = 10;
constexpr int kMaxAlternations = 3;

/// Model description bits: the forced-SIRS base (8 floats) plus, per shock,
/// its start/width positions and one float strength.
double FunnelModelCostBits(const FunnelParams& params, size_t n_ticks) {
  double bits = 8.0 * kFloatCostBits;
  bits += LogStar(static_cast<double>(params.shocks.size()) + 1.0);
  for (const FunnelShock& shock : params.shocks) {
    (void)shock;
    bits += 2.0 * LogChoiceCost(std::max<size_t>(n_ticks, 2)) + kFloatCostBits;
  }
  return bits;
}

/// MDL total cost with the simulation written into a caller-owned buffer.
double TotalCostBits(const Series& data, const FunnelParams& params,
                     std::vector<double>* estimate) {
  estimate->resize(data.size());
  SimulateFunnelInto(params, *estimate);
  return FunnelModelCostBits(params, data.size()) +
         GaussianCodingCost(std::span<const double>(data.values()),
                            std::span<const double>(*estimate));
}

}  // namespace

void SimulateFunnelInto(const FunnelParams& params, std::span<double> out) {
  const SkipsParams& base = params.base;
  const size_t n_ticks = out.size();
  const double n = std::max(base.population, 1e-9);
  double s = std::max(n - base.i0, 0.0);
  double i = std::min(base.i0, n);
  double v = 0.0;
  constexpr double kTwoPi = 6.283185307179586;
  const double period = std::max(base.period, 2.0);
  for (size_t t = 0; t < n_ticks; ++t) {
    out[t] = i;
    double shock_boost = 1.0;
    for (const FunnelShock& shock : params.shocks) {
      if (t >= shock.start && t < shock.start + shock.width) {
        shock_boost += shock.strength;
      }
    }
    const double forcing =
        1.0 + base.amplitude * std::sin(kTwoPi * static_cast<double>(t) /
                                            period +
                                        base.phase);
    const double beta = std::max(base.beta0 * forcing * shock_boost, 0.0);
    const double infect = std::min(beta * (s / n) * i, s);
    const double recover = std::min(base.delta, 1.0) * i;
    const double wane = std::min(base.gamma, 1.0) * v;
    s += wane - infect;
    i += infect - recover;
    v += recover - wane;
    s = std::max(s, 0.0);
    i = std::max(i, 0.0);
    v = std::max(v, 0.0);
  }
}

Series SimulateFunnel(const FunnelParams& params, size_t n_ticks) {
  Series out(n_ticks);
  SimulateFunnelInto(params, out.mutable_values());
  return out;
}

StatusOr<FunnelFit> FitFunnel(const Series& data) {
  if (data.observed_count() < 16) {
    return Status::InvalidArgument("FitFunnel: too few observations");
  }
  const size_t n_ticks = data.size();
  const double peak = std::max(data.MaxValue(), 1.0);

  FunnelFit fit;
  // Phase 1: base forced-SIRS (reuse the SKIPS fitter).
  DSPOT_ASSIGN_OR_RETURN(SkipsFit base_fit, FitSkips(data));
  fit.params.base = base_fit.params;

  // Shared scratch for the alternation: observed-tick indices, simulation
  // buffer, and the LM workspace.
  std::vector<size_t> observed;
  for (size_t t = 0; t < n_ticks; ++t) {
    if (data.IsObserved(t)) observed.push_back(t);
  }
  std::vector<double> estimate(n_ticks);
  LmWorkspace lm_workspace;

  double best_cost = TotalCostBits(data, fit.params, &estimate);

  // Phase 2/3 alternation: refit base continuous params given shocks, then
  // greedily add one-shot shocks while the MDL cost drops.
  for (int round = 0; round < kMaxAlternations; ++round) {
    // Refit the continuous base parameters with shocks held fixed; the
    // shock set is constant during the solve, so the candidate (and its
    // shocks vector) is built once and only the scalars vary per call.
    FunnelParams residual_candidate = fit.params;
    auto residual_fn = [&](std::span<const double> p,
                           std::span<double> r) -> Status {
      residual_candidate.base.population = p[0];
      residual_candidate.base.beta0 = p[1];
      residual_candidate.base.delta = p[2];
      residual_candidate.base.gamma = p[3];
      residual_candidate.base.amplitude = p[4];
      residual_candidate.base.phase = p[5];
      residual_candidate.base.i0 = p[6];
      SimulateFunnelInto(residual_candidate, estimate);
      for (size_t k = 0; k < observed.size(); ++k) {
        const size_t t = observed[k];
        r[k] = estimate[t] - data[t];
      }
      return Status::Ok();
    };
    Bounds bounds;
    bounds.lower = {peak * 1.05, 1e-6, 1e-6, 1e-6, 0.0, -3.2, 1e-6};
    bounds.upper = {peak * 100.0, 5.0, 1.0, 1.0, 1.0, 3.2, peak};
    const SkipsParams& b = fit.params.base;
    std::vector<double> init = {b.population, b.beta0, b.delta, b.gamma,
                                b.amplitude, b.phase, b.i0};
    auto lm_or = LevenbergMarquardt(residual_fn, observed.size(), init,
                                    bounds, LmOptions(), &lm_workspace);
    if (lm_or.ok()) {
      FunnelParams candidate = fit.params;
      const auto& p = lm_or->params;
      candidate.base.population = p[0];
      candidate.base.beta0 = p[1];
      candidate.base.delta = p[2];
      candidate.base.gamma = p[3];
      candidate.base.amplitude = p[4];
      candidate.base.phase = p[5];
      candidate.base.i0 = p[6];
      const double cost = TotalCostBits(data, candidate, &estimate);
      if (cost < best_cost) {
        best_cost = cost;
        fit.params = candidate;
      }
    }

    // Greedy one-shot shock additions.
    bool added = false;
    while (fit.params.shocks.size() < kMaxShocks) {
      SimulateFunnelInto(fit.params, estimate);
      Series residual(n_ticks);
      for (size_t t = 0; t < n_ticks; ++t) {
        residual[t] = data.IsObserved(t) ? data[t] - estimate[t]
                                         : kMissingValue;
      }
      const std::vector<Burst> bursts = FindBursts(residual);
      if (bursts.empty()) break;
      const Burst& burst = bursts[0];

      FunnelParams candidate = fit.params;
      FunnelShock shock;
      shock.start = burst.start;
      shock.width = std::max<size_t>(burst.width, 1);
      candidate.shocks.push_back(shock);
      // 1-d fit of the shock strength.
      const double best_strength = GridThenGoldenMinimize(
          [&](double strength) {
            candidate.shocks.back().strength = strength;
            SimulateFunnelInto(candidate, estimate);
            return Rmse(std::span<const double>(data.values()),
                        std::span<const double>(estimate));
          },
          0.0, 50.0, 50);
      candidate.shocks.back().strength = best_strength;
      const double cost = TotalCostBits(data, candidate, &estimate);
      if (cost < best_cost) {
        best_cost = cost;
        fit.params = candidate;
        added = true;
      } else {
        break;
      }
    }
    if (!added && round > 0) break;
  }

  fit.total_cost_bits = best_cost;
  SimulateFunnelInto(fit.params, estimate);
  fit.rmse = Rmse(std::span<const double>(data.values()),
                  std::span<const double>(estimate));
  return fit;
}

StatusOr<FunnelFit> FitFunnelLocal(const Series& local_data,
                                   const FunnelFit& global_fit) {
  if (local_data.observed_count() < 8) {
    return Status::InvalidArgument("FitFunnelLocal: too few observations");
  }
  const size_t n_ticks = local_data.size();
  FunnelFit fit = global_fit;
  std::vector<double> estimate(n_ticks);

  // Rescale the population (and i0 proportionally) to the local volume.
  const double scale_seed =
      std::max(local_data.MaxValue(), 1e-6) /
      std::max(SimulateFunnel(global_fit.params, n_ticks).MaxValue(), 1e-6);
  FunnelParams scale_candidate = global_fit.params;
  const double best_scale = GridThenGoldenMinimize(
      [&](double scale) {
        scale_candidate.base.population = global_fit.params.base.population;
        scale_candidate.base.i0 = global_fit.params.base.i0;
        scale_candidate.base.population *= scale;
        scale_candidate.base.i0 *= scale;
        SimulateFunnelInto(scale_candidate, estimate);
        return Rmse(std::span<const double>(local_data.values()),
                    std::span<const double>(estimate));
      },
      scale_seed * 0.05, scale_seed * 20.0, 60);
  fit.params.base.population *= best_scale;
  fit.params.base.i0 *= best_scale;

  // Refit each shock strength locally.
  FunnelParams strength_candidate = fit.params;
  for (size_t k = 0; k < fit.params.shocks.size(); ++k) {
    const double best_strength = GridThenGoldenMinimize(
        [&](double strength) {
          strength_candidate.shocks[k].strength = strength;
          SimulateFunnelInto(strength_candidate, estimate);
          return Rmse(std::span<const double>(local_data.values()),
                      std::span<const double>(estimate));
        },
        0.0, 50.0, 50);
    fit.params.shocks[k].strength = best_strength;
    strength_candidate.shocks[k].strength = best_strength;
  }

  fit.total_cost_bits = TotalCostBits(local_data, fit.params, &estimate);
  SimulateFunnelInto(fit.params, estimate);
  fit.rmse = Rmse(std::span<const double>(local_data.values()),
                  std::span<const double>(estimate));
  return fit;
}

}  // namespace dspot
