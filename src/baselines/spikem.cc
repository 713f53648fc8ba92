#include "baselines/spikem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "optimize/levenberg_marquardt.h"
#include "timeseries/metrics.h"
#include "timeseries/peaks.h"

namespace dspot {

namespace {
constexpr double kTwoPi = 6.283185307179586;
constexpr double kDecayExponent = -1.5;
/// Candidate shock-start grid resolution of FitSpikeM.
constexpr size_t kStartGrid = 24;
}  // namespace

void SimulateSpikeMInto(const SpikeMParams& params, SpikeMWorkspace* workspace,
                        std::span<double> out) {
  const size_t n_ticks = out.size();
  if (n_ticks == 0) {
    return;
  }
  const double n_total = std::max(params.population, 1e-9);
  // The power-law kernel f(tau) = beta * tau^{-1.5} factors into a
  // beta-independent decay (cached per horizon — the pow calls dominate
  // the kernel build) times the current beta.
  std::vector<double>& decay = workspace->decay;
  if (decay.size() != n_ticks + 1) {
    decay.assign(n_ticks + 1, 0.0);
    for (size_t tau = 1; tau <= n_ticks; ++tau) {
      decay[tau] = std::pow(static_cast<double>(tau), kDecayExponent);
    }
  }
  std::vector<double>& kernel = workspace->kernel;
  kernel.resize(n_ticks + 1);
  kernel[0] = 0.0;
  for (size_t tau = 1; tau <= n_ticks; ++tau) {
    kernel[tau] = params.beta * decay[tau];
  }
  auto modulation = [&](size_t t) {
    if (params.period < 2.0 || params.periodicity_amplitude <= 0.0) {
      return 1.0;
    }
    const double phase =
        kTwoPi * (static_cast<double>(t) + params.periodicity_shift) /
        params.period;
    return 1.0 - 0.5 * std::clamp(params.periodicity_amplitude, 0.0, 1.0) *
                     (std::sin(phase) + 1.0);
  };

  double informed = 0.0;  // B(t)
  out[0] = 0.0;
  for (size_t t = 0; t + 1 < n_ticks; ++t) {
    double influence = 0.0;
    for (size_t s = params.shock_start; s <= t; ++s) {
      const double source =
          out[s] + (s == params.shock_start ? params.shock_size : 0.0);
      influence += source * kernel[t + 1 - s];
    }
    const double available = std::max(n_total - informed, 0.0);
    double next = modulation(t + 1) *
                  (available / n_total * influence + params.background);
    next = std::clamp(next, 0.0, available);
    out[t + 1] = next;
    informed += next;
  }
}

Series SimulateSpikeM(const SpikeMParams& params, size_t n_ticks) {
  Series delta(n_ticks);
  SpikeMWorkspace workspace;
  SimulateSpikeMInto(params, &workspace, delta.mutable_values());
  return delta;
}

StatusOr<SpikeMFit> FitSpikeM(const Series& data) {
  if (data.observed_count() < 12) {
    return Status::InvalidArgument("FitSpikeM: too few observations");
  }
  const size_t n = data.size();
  const double peak = std::max(data.MaxValue(), 1.0);
  const double volume = std::max(data.SumValue(), peak);

  // Candidate shock starts: the strongest bursts, plus a coarse grid.
  std::vector<size_t> candidates;
  for (const Burst& b : FindBursts(data)) {
    candidates.push_back(b.start > 2 ? b.start - 2 : 0);
    if (candidates.size() >= 4) break;
  }
  for (size_t g = 0; g < kStartGrid; ++g) {
    candidates.push_back(n * g / kStartGrid);
  }

  // One scratch for every candidate-start solve: observed-tick indices,
  // the simulation buffer and workspace (the cached decay kernel survives
  // across all solves — the horizon never changes), and the LM workspace.
  std::vector<size_t> observed;
  for (size_t t = 0; t < n; ++t) {
    if (data.IsObserved(t)) observed.push_back(t);
  }
  std::vector<double> estimate(n);
  SpikeMWorkspace sim_workspace;
  LmWorkspace lm_workspace;

  SpikeMFit best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t start : candidates) {
    if (start + 4 >= n) continue;
    auto residual_fn = [&](std::span<const double> p,
                           std::span<double> r) -> Status {
      SpikeMParams params;
      params.population = p[0];
      params.beta = p[1];
      params.shock_size = p[2];
      params.background = p[3];
      params.shock_start = start;
      SimulateSpikeMInto(params, &sim_workspace, estimate);
      for (size_t k = 0; k < observed.size(); ++k) {
        const size_t t = observed[k];
        r[k] = estimate[t] - data[t];
      }
      return Status::Ok();
    };
    Bounds bounds;
    bounds.lower = {volume * 0.2, 1e-4, 0.0, 0.0};
    bounds.upper = {volume * 50.0, 10.0, peak * 20.0, peak};
    const std::vector<double> init = {volume, 0.5, peak, 0.1};
    auto fit_or = LevenbergMarquardt(residual_fn, observed.size(), init,
                                     bounds, LmOptions(), &lm_workspace);
    if (!fit_or.ok()) continue;
    if (fit_or->final_cost < best_cost) {
      best_cost = fit_or->final_cost;
      const auto& p = fit_or->params;
      best.params.population = p[0];
      best.params.beta = p[1];
      best.params.shock_size = p[2];
      best.params.background = p[3];
      best.params.shock_start = start;
    }
  }
  if (!std::isfinite(best_cost)) {
    return Status::NumericalError("FitSpikeM: all starts failed");
  }
  SimulateSpikeMInto(best.params, &sim_workspace, estimate);
  best.rmse = Rmse(std::span<const double>(data.values()),
                   std::span<const double>(estimate));
  return best;
}

}  // namespace dspot
