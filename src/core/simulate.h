#ifndef DSPOT_CORE_SIMULATE_H_
#define DSPOT_CORE_SIMULATE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/params.h"
#include "core/schedule_cache.h"
#include "kernels/siv_kernel.h"
#include "timeseries/series.h"

namespace dspot {

/// Inputs for one run of the SIV recurrence (Model 1):
///
///   S(t+1) = S(t) - beta*(S(t)/N)*eps(t)*I(t)*(1+eta(t)) + gamma*V(t)
///   I(t+1) = I(t) + beta*(S(t)/N)*eps(t)*I(t)*(1+eta(t)) - delta*I(t)
///   V(t+1) = V(t) + delta*I(t) - gamma*V(t)
///
/// The infection term is normalized by N (per-capita contact rate), which
/// keeps beta O(1) as in the paper's reported values. Flows are clamped so
/// compartments never go negative; the invariant S+I+V = N holds exactly.
struct SivInputs {
  double population = 1.0;
  double beta = 0.1;
  double delta = 0.1;
  double gamma = 0.05;
  double i0 = 1.0;
  /// eps(t) per tick; empty means eps = 1 everywhere.
  std::vector<double> epsilon;
  /// eta(t) per tick; empty means eta = 0 everywhere.
  std::vector<double> eta;
};

/// Full compartment trajectory.
struct SivTrajectory {
  Series susceptible;
  Series infective;
  Series vigilant;
};

/// The SIV scalars of a keyword's global parameters, as the kernel layer
/// takes them: the one conversion from KeywordGlobalParams. Every fit,
/// forecast and simulation runs the recurrence through
/// kernels::SimulateSivScalarInto (or its batch and resumable forms).
inline kernels::SivParams KernelParams(const KeywordGlobalParams& p) {
  return {p.population, p.beta, p.delta, p.gamma, p.i0};
}

/// Runs the recurrence for `n_ticks` steps and returns I(t) (the modeled
/// activity volume).
Series SimulateSiv(const SivInputs& inputs, size_t n_ticks);

/// Runs the recurrence and returns all three compartments: the kernel's
/// run resumed one tick at a time, so `infective` is SimulateSiv's output
/// bit for bit.
SivTrajectory SimulateSivFull(const SivInputs& inputs, size_t n_ticks);

/// Builds the step function eta(t) = growth_rate * 1[t >= growth_start].
/// Returns an EMPTY vector when growth is disabled (growth_start == kNpos
/// or growth_rate == 0); the simulator's `t < eta.size()` guard treats the
/// missing ticks as eta = 0.
std::vector<double> BuildEta(double growth_rate, size_t growth_start,
                             size_t n_ticks);

/// Simulates the global-level sequence of keyword `i` under `params` for
/// `n_ticks` ticks (which may exceed params.num_ticks for forecasting).
Series SimulateGlobal(const ModelParamSet& params, size_t keyword,
                      size_t n_ticks);

/// SimulateGlobal into caller-owned storage (out.size() is the horizon):
/// schedules come from `*cache` and are rebuilt only when the shock set or
/// growth parameters changed. Allocation-free once the cache is warm.
void SimulateGlobalInto(const ModelParamSet& params, size_t keyword,
                        ScheduleCache* cache, std::span<double> out);

/// Runs one keyword's model over out.size() ticks, which may pass its
/// fitted range: SimulateGlobalInto on the one-keyword set of `model`
/// (shocks re-tagged keyword 0). Served forecasts and outlier scores,
/// stream triage and stream forecasts all simulate through it, so they
/// agree bit for bit with ForecastGlobal on the same parameters.
void SimulateKeywordInto(const KeywordModel& model, ScheduleCache* cache,
                         std::span<double> out);

/// Simulates the local-level sequence of (keyword, location). Requires
/// `params.has_local()`; falls back to a population share of 1/l of the
/// global dynamics when local matrices are absent.
Series SimulateLocal(const ModelParamSet& params, size_t keyword,
                     size_t location, size_t n_ticks);

/// SimulateLocal into caller-owned storage, schedules served by `*cache`.
void SimulateLocalInto(const ModelParamSet& params, size_t keyword,
                       size_t location, ScheduleCache* cache,
                       std::span<double> out);

}  // namespace dspot

#endif  // DSPOT_CORE_SIMULATE_H_
