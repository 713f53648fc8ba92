#include "epidemics/sir_family.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "kernels/dual.h"
#include "linalg/matrix.h"
#include "optimize/levenberg_marquardt.h"
#include "timeseries/metrics.h"

namespace dspot {

namespace {

using kernels::Dual;
using kernels::TMax;
using kernels::TMin;

/// The three recurrences, templated over the scalar type so one definition
/// serves both the plain double simulation and the forward-mode dual pass
/// that yields the LM Jacobian. The double instantiations run EXACTLY the
/// operation sequence of the historical scalar loops (TMin/TMax reproduce
/// std::min/std::max operand selection — see kernels/dual.h), so the
/// refactor is bit-identical on the value path.

template <typename T>
void SimulateSiT(const T& population, const T& beta, const T& i0,
                 std::span<T> out) {
  const T n = TMax(population, T(1e-9));
  T s = TMax(n - i0, T(0.0));
  T i = TMin(i0, n);
  for (size_t t = 0; t < out.size(); ++t) {
    out[t] = i;
    const T flow = TMin(beta * (s / n) * i, s);
    s -= flow;
    i += flow;
  }
}

template <typename T>
void SimulateSirT(const T& population, const T& beta, const T& delta,
                  const T& i0, std::span<T> out) {
  const T n = TMax(population, T(1e-9));
  T s = TMax(n - i0, T(0.0));
  T i = TMin(i0, n);
  for (size_t t = 0; t < out.size(); ++t) {
    out[t] = i;
    const T infect = TMin(beta * (s / n) * i, s);
    const T recover = TMin(delta, T(1.0)) * i;
    s -= infect;
    i += infect - recover;
    i = TMax(i, T(0.0));
  }
}

template <typename T>
void SimulateSirsT(const T& population, const T& beta, const T& delta,
                   const T& gamma, const T& i0, std::span<T> out) {
  const T n = TMax(population, T(1e-9));
  T s = TMax(n - i0, T(0.0));
  T i = TMin(i0, n);
  T v = T(0.0);
  for (size_t t = 0; t < out.size(); ++t) {
    out[t] = i;
    const T infect = TMin(beta * (s / n) * i, s);
    const T recover = TMin(delta, T(1.0)) * i;
    const T wane = TMin(gamma, T(1.0)) * v;
    s += wane - infect;
    i += infect - recover;
    v += recover - wane;
    s = TMax(s, T(0.0));
    i = TMax(i, T(0.0));
    v = TMax(v, T(0.0));
  }
}

/// Shared per-fit scratch: the LM workspace, the simulation buffer, the
/// observed-tick index list the residual loop walks, and the Jacobian the
/// normal-equations hook assembles.
struct EpidemicScratch {
  LmWorkspace lm;
  std::vector<double> estimate;
  std::vector<size_t> observed;
  Matrix jac;

  void Prepare(const Series& data) {
    estimate.resize(data.size());
    observed.clear();
    for (size_t t = 0; t < data.size(); ++t) {
      if (data.IsObserved(t)) observed.push_back(t);
    }
  }
};

/// Shared residual builder: model I(t) minus data over observed ticks.
template <typename SimulateInto>
Status ResidualsFor(const Series& data, const SimulateInto& simulate_into,
                    EpidemicScratch* scratch, std::span<double> r) {
  simulate_into(std::span<double>(scratch->estimate));
  for (size_t k = 0; k < scratch->observed.size(); ++k) {
    const size_t t = scratch->observed[k];
    r[k] = scratch->estimate[t] - data[t];
  }
  return Status::Ok();
}

/// The LM normal-equations hook of one model: `simulate_dual(vars, out)`
/// runs the recurrence over Dual<NP> from the seeded parameters `vars`;
/// row k of J is the derivative part of I(observed[k]), and J^T J / J^T r
/// come from Matrix::GramInto / TransposedTimesInto — the same sums the
/// solver forms from a Jacobian, so the fits are those of a Jacobian hook.
template <size_t NP, typename SimulateDual>
NormalEquationsFn DualNormalEquations(EpidemicScratch* scratch,
                                      SimulateDual simulate_dual) {
  return [scratch, simulate_dual,
          trajectory = std::vector<Dual<NP>>(scratch->estimate.size())](
             std::span<const double> p, std::span<const double> r,
             Matrix* jtj, std::span<double> jtr) mutable -> Status {
    Dual<NP> vars[NP];
    for (size_t c = 0; c < NP; ++c) vars[c] = Dual<NP>::Var(p[c], c);
    simulate_dual(vars, std::span<Dual<NP>>(trajectory));
    Matrix& jac = scratch->jac;
    jac.Resize(scratch->observed.size(), NP);
    for (size_t k = 0; k < scratch->observed.size(); ++k) {
      const Dual<NP>& it = trajectory[scratch->observed[k]];
      for (size_t c = 0; c < NP; ++c) jac(k, c) = it.d[c];
    }
    jac.GramInto(jtj);
    jac.TransposedTimesInto(r, jtr);
    return Status::Ok();
  };
}

constexpr int kMinObserved = 8;

/// Initial guesses shared by the family: population scaled off the peak,
/// a handful of (beta, delta) starting pairs.
struct Start {
  double beta;
  double delta;
  double gamma;
};

const Start kStarts[] = {
    {0.3, 0.1, 0.05}, {0.6, 0.4, 0.2}, {0.9, 0.7, 0.5}, {0.2, 0.5, 0.1}};

}  // namespace

void SimulateSiInto(const SiParams& params, std::span<double> out) {
  SimulateSiT<double>(params.population, params.beta, params.i0, out);
}

Series SimulateSi(const SiParams& params, size_t n_ticks) {
  Series out(n_ticks);
  SimulateSiInto(params, out.mutable_values());
  return out;
}

void SimulateSirInto(const SirParams& params, std::span<double> out) {
  SimulateSirT<double>(params.population, params.beta, params.delta, params.i0,
                       out);
}

Series SimulateSir(const SirParams& params, size_t n_ticks) {
  Series out(n_ticks);
  SimulateSirInto(params, out.mutable_values());
  return out;
}

void SimulateSirsInto(const SirsParams& params, std::span<double> out) {
  SimulateSirsT<double>(params.population, params.beta, params.delta,
                        params.gamma, params.i0, out);
}

Series SimulateSirs(const SirsParams& params, size_t n_ticks) {
  Series out(n_ticks);
  SimulateSirsInto(params, out.mutable_values());
  return out;
}

StatusOr<SiFit> FitSi(const Series& data) {
  if (data.observed_count() < kMinObserved) {
    return Status::InvalidArgument("FitSi: too few observations");
  }
  const double peak = std::max(data.MaxValue(), 1.0);

  EpidemicScratch scratch;
  scratch.Prepare(data);
  auto residual_fn = [&](std::span<const double> p,
                         std::span<double> r) -> Status {
    SiParams params{p[0], p[1], p[2]};
    return ResidualsFor(
        data, [&](std::span<double> out) { SimulateSiInto(params, out); },
        &scratch, r);
  };
  LmOptions lm_options;
  lm_options.normal_equations = DualNormalEquations<3>(
      &scratch, [](const Dual<3>* x, std::span<Dual<3>> out) {
        SimulateSiT<Dual<3>>(x[0], x[1], x[2], out);
      });
  Bounds bounds;
  bounds.lower = {peak * 1.05, 1e-6, 1e-6};
  bounds.upper = {peak * 100.0, 5.0, peak};

  SiFit best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Start& start : kStarts) {
    std::vector<double> init = {peak * 2.0, start.beta, 1.0};
    auto fit_or = LevenbergMarquardt(residual_fn, scratch.observed.size(),
                                     init, bounds, lm_options, &scratch.lm);
    if (!fit_or.ok()) continue;
    if (fit_or->final_cost < best_cost) {
      best_cost = fit_or->final_cost;
      best.params = {fit_or->params[0], fit_or->params[1], fit_or->params[2]};
      best.info.lm_iterations = fit_or->iterations;
    }
  }
  if (!std::isfinite(best_cost)) {
    return Status::NumericalError("FitSi: all starts failed");
  }
  SimulateSiInto(best.params, scratch.estimate);
  best.info.rmse = Rmse(std::span<const double>(data.values()),
                        std::span<const double>(scratch.estimate));
  return best;
}

StatusOr<SirFit> FitSir(const Series& data) {
  if (data.observed_count() < kMinObserved) {
    return Status::InvalidArgument("FitSir: too few observations");
  }
  const double peak = std::max(data.MaxValue(), 1.0);

  EpidemicScratch scratch;
  scratch.Prepare(data);
  auto residual_fn = [&](std::span<const double> p,
                         std::span<double> r) -> Status {
    SirParams params{p[0], p[1], p[2], p[3]};
    return ResidualsFor(
        data, [&](std::span<double> out) { SimulateSirInto(params, out); },
        &scratch, r);
  };
  LmOptions lm_options;
  lm_options.normal_equations = DualNormalEquations<4>(
      &scratch, [](const Dual<4>* x, std::span<Dual<4>> out) {
        SimulateSirT<Dual<4>>(x[0], x[1], x[2], x[3], out);
      });
  Bounds bounds;
  bounds.lower = {peak * 1.05, 1e-6, 1e-6, 1e-6};
  bounds.upper = {peak * 100.0, 5.0, 1.0, peak};

  SirFit best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Start& start : kStarts) {
    std::vector<double> init = {peak * 2.0, start.beta, start.delta, 1.0};
    auto fit_or = LevenbergMarquardt(residual_fn, scratch.observed.size(),
                                     init, bounds, lm_options, &scratch.lm);
    if (!fit_or.ok()) continue;
    if (fit_or->final_cost < best_cost) {
      best_cost = fit_or->final_cost;
      best.params = {fit_or->params[0], fit_or->params[1], fit_or->params[2],
                     fit_or->params[3]};
      best.info.lm_iterations = fit_or->iterations;
    }
  }
  if (!std::isfinite(best_cost)) {
    return Status::NumericalError("FitSir: all starts failed");
  }
  SimulateSirInto(best.params, scratch.estimate);
  best.info.rmse = Rmse(std::span<const double>(data.values()),
                        std::span<const double>(scratch.estimate));
  return best;
}

StatusOr<SirsFit> FitSirs(const Series& data) {
  if (data.observed_count() < kMinObserved) {
    return Status::InvalidArgument("FitSirs: too few observations");
  }
  const double peak = std::max(data.MaxValue(), 1.0);

  EpidemicScratch scratch;
  scratch.Prepare(data);
  auto residual_fn = [&](std::span<const double> p,
                         std::span<double> r) -> Status {
    SirsParams params{p[0], p[1], p[2], p[3], p[4]};
    return ResidualsFor(
        data, [&](std::span<double> out) { SimulateSirsInto(params, out); },
        &scratch, r);
  };
  LmOptions lm_options;
  lm_options.normal_equations = DualNormalEquations<5>(
      &scratch, [](const Dual<5>* x, std::span<Dual<5>> out) {
        SimulateSirsT<Dual<5>>(x[0], x[1], x[2], x[3], x[4], out);
      });
  Bounds bounds;
  bounds.lower = {peak * 1.05, 1e-6, 1e-6, 1e-6, 1e-6};
  bounds.upper = {peak * 100.0, 5.0, 1.0, 1.0, peak};

  SirsFit best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Start& start : kStarts) {
    std::vector<double> init = {peak * 2.0, start.beta, start.delta,
                                start.gamma, 1.0};
    auto fit_or = LevenbergMarquardt(residual_fn, scratch.observed.size(),
                                     init, bounds, lm_options, &scratch.lm);
    if (!fit_or.ok()) continue;
    if (fit_or->final_cost < best_cost) {
      best_cost = fit_or->final_cost;
      best.params = {fit_or->params[0], fit_or->params[1], fit_or->params[2],
                     fit_or->params[3], fit_or->params[4]};
      best.info.lm_iterations = fit_or->iterations;
    }
  }
  if (!std::isfinite(best_cost)) {
    return Status::NumericalError("FitSirs: all starts failed");
  }
  SimulateSirsInto(best.params, scratch.estimate);
  best.info.rmse = Rmse(std::span<const double>(data.values()),
                        std::span<const double>(scratch.estimate));
  return best;
}

}  // namespace dspot
