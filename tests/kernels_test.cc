// Kernel-layer contracts (src/kernels): the SIMD batch SIV simulation is
// bit-identical to the scalar recurrence, a run resumed from a stored state
// reproduces the full run, SIMD reductions stay within the documented
// golden tolerance of a scalar left fold, the forward-mode dual Jacobian
// matches numeric differentiation and the fused normal equations match it
// bit for bit, and the branch-free calendar arithmetic handles pre-epoch
// timestamps — including through the event log's calendar bucketing mode.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "core/global_fit.h"
#include "epidemics/sir_family.h"
#include "kernels/calendar.h"
#include "kernels/dspot_simd.h"
#include "kernels/dual.h"
#include "kernels/reduce.h"
#include "kernels/siv_kernel.h"
#include "linalg/matrix.h"
#include "optimize/levenberg_marquardt.h"
#include "tensor/event_log.h"
#include "timeseries/metrics.h"
#include "timeseries/series.h"

namespace dspot {
namespace {

using kernels::Dual;
using kernels::SivParams;

// --- scalar reference implementations ---------------------------------

/// The seed repository's SimulateSivInto loop, kept verbatim as the
/// reference the kernel layer must reproduce bit-for-bit.
void ReferenceSiv(const SivParams& p, std::span<const double> epsilon,
                  std::span<const double> eta, std::span<double> out) {
  const double n = std::max(p.population, 1e-9);
  double i = std::clamp(p.i0, 0.0, n);
  double s = n - i;
  double v = 0.0;
  const double delta = std::clamp(p.delta, 0.0, 1.0);
  const double gamma = std::clamp(p.gamma, 0.0, 1.0);
  for (size_t t = 0; t < out.size(); ++t) {
    out[t] = i;
    const double eps = t < epsilon.size() ? epsilon[t] : 1.0;
    const double eta_t = t < eta.size() ? eta[t] : 0.0;
    const double raw_infect = p.beta * (s / n) * eps * i * (1.0 + eta_t);
    const double infect = std::clamp(raw_infect, 0.0, s);
    const double recover = delta * i;
    const double wane = gamma * v;
    s += wane - infect;
    i += infect - recover;
    v += recover - wane;
  }
}

SivParams RandomParams(std::mt19937* rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  SivParams p;
  p.population = 50.0 + 400.0 * u(*rng);
  p.beta = 0.05 + 0.9 * u(*rng);
  p.delta = 0.05 + 0.9 * u(*rng);
  p.gamma = 0.02 + 0.9 * u(*rng);
  p.i0 = 0.5 + 5.0 * u(*rng);
  return p;
}

std::vector<double> RandomSchedule(size_t n, double lo, double hi,
                                   std::mt19937* rng) {
  std::uniform_real_distribution<double> u(lo, hi);
  std::vector<double> out(n);
  for (double& x : out) x = u(*rng);
  return out;
}

// --- SIV: scalar path bit-identity ------------------------------------

TEST(SivKernelTest, ScalarMatchesSeedRecurrenceBitForBit) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 25; ++trial) {
    const SivParams p = RandomParams(&rng);
    const size_t n = 1 + static_cast<size_t>(trial) * 23;
    const std::vector<double> eps = RandomSchedule(n, 0.5, 10.0, &rng);
    const std::vector<double> eta = RandomSchedule(n / 2, 0.0, 2.0, &rng);
    std::vector<double> expected(n), got(n);
    ReferenceSiv(p, eps, eta, expected);
    kernels::SimulateSivScalarInto(p, eps, eta, got);
    for (size_t t = 0; t < n; ++t) {
      ASSERT_EQ(expected[t], got[t]) << "trial " << trial << " tick " << t;
    }
  }
}

TEST(SivKernelTest, ExtremeParamsStillBitIdentical) {
  // Clamp-active corners: zero population, i0 above N, rates outside
  // [0, 1], huge shocks.
  const SivParams corners[] = {
      {0.0, 0.5, 0.4, 0.3, 1.0},   {100.0, 0.5, 0.4, 0.3, 500.0},
      {100.0, 0.5, 1.7, -0.2, 1.0}, {100.0, 5.0, 0.4, 0.3, 1.0},
      {1e-12, 0.5, 0.4, 0.3, 1.0},
  };
  const std::vector<double> eps(64, 50.0);
  for (const SivParams& p : corners) {
    std::vector<double> expected(64), got(64);
    ReferenceSiv(p, eps, {}, expected);
    kernels::SimulateSivScalarInto(p, eps, {}, got);
    for (size_t t = 0; t < 64; ++t) {
      ASSERT_EQ(expected[t], got[t]);
    }
  }
}

// --- SIV: SoA/SIMD batch bit-identity ---------------------------------

TEST(SivKernelTest, BatchMatchesScalarBitForBitAllLanes) {
  // Counts 1-9 cover whole vectors and every partial remainder vector at
  // every lane width.
  for (const size_t count : {1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 9ul,
                             21ul}) {
    std::mt19937 rng(99 + count);
    const size_t n_ticks = 173;
    std::vector<SivParams> params(count);
    std::vector<double> population(count), beta(count), delta(count),
        gamma(count), i0(count);
    for (size_t l = 0; l < count; ++l) {
      params[l] = RandomParams(&rng);
      population[l] = params[l].population;
      beta[l] = params[l].beta;
      delta[l] = params[l].delta;
      gamma[l] = params[l].gamma;
      i0[l] = params[l].i0;
    }
    // Packed per-lane schedules [t * count + l].
    std::vector<double> eps_soa(n_ticks * count), eta_soa(n_ticks * count);
    std::vector<std::vector<double>> eps_lane(count), eta_lane(count);
    for (size_t l = 0; l < count; ++l) {
      eps_lane[l] = RandomSchedule(n_ticks, 0.5, 10.0, &rng);
      eta_lane[l] = RandomSchedule(n_ticks, 0.0, 2.0, &rng);
      for (size_t t = 0; t < n_ticks; ++t) {
        eps_soa[t * count + l] = eps_lane[l][t];
        eta_soa[t * count + l] = eta_lane[l][t];
      }
    }
    const kernels::SivBatchSoA batch{population.data(), beta.data(),
                                     delta.data(),      gamma.data(),
                                     i0.data(),         eps_soa.data(),
                                     eta_soa.data()};
    // A tail past the batch's output, which no lane may write.
    std::vector<double> out(n_ticks * count + 8, -7.0);
    kernels::SimulateSivBatchInto(batch, count, n_ticks, out.data());
    for (size_t k = n_ticks * count; k < out.size(); ++k) {
      ASSERT_EQ(out[k], -7.0) << "count " << count << " wrote past the end";
    }
    std::vector<double> lane(n_ticks);
    for (size_t l = 0; l < count; ++l) {
      kernels::SimulateSivScalarInto(params[l], eps_lane[l], eta_lane[l],
                                     lane);
      for (size_t t = 0; t < n_ticks; ++t) {
        ASSERT_EQ(lane[t], out[t * count + l])
            << "count " << count << " lane " << l << " tick " << t;
      }
    }
  }
}

TEST(SivKernelTest, BatchNullSchedulesMeanNoShocksNoGrowth) {
  const size_t count = 5, n_ticks = 60;
  std::mt19937 rng(7);
  std::vector<SivParams> params(count);
  std::vector<double> population(count), beta(count), delta(count),
      gamma(count), i0(count);
  for (size_t l = 0; l < count; ++l) {
    params[l] = RandomParams(&rng);
    population[l] = params[l].population;
    beta[l] = params[l].beta;
    delta[l] = params[l].delta;
    gamma[l] = params[l].gamma;
    i0[l] = params[l].i0;
  }
  const kernels::SivBatchSoA batch{population.data(), beta.data(),
                                   delta.data(),      gamma.data(),
                                   i0.data(),         nullptr,
                                   nullptr};
  std::vector<double> out(n_ticks * count), lane(n_ticks);
  kernels::SimulateSivBatchInto(batch, count, n_ticks, out.data());
  for (size_t l = 0; l < count; ++l) {
    kernels::SimulateSivScalarInto(params[l], {}, {}, lane);
    for (size_t t = 0; t < n_ticks; ++t) {
      ASSERT_EQ(lane[t], out[t * count + l]);
    }
  }
}

// --- SIV: resuming from a stored state --------------------------------

/// Random schedules with exact zeros in eps (eps = 0 switches infection
/// off for the tick — the clamp corner of the infection term).
std::vector<double> ScheduleWithZeros(size_t n, std::mt19937* rng) {
  std::vector<double> eps = RandomSchedule(n, 0.5, 10.0, rng);
  for (size_t t = 0; t < n; t += 7) eps[t] = 0.0;
  return eps;
}

TEST(SivKernelTest, PrefixPlusResumeMatchesFullRunAtEveryTick) {
  std::mt19937 rng(2024);
  std::vector<SivParams> params;
  for (int k = 0; k < 6; ++k) params.push_back(RandomParams(&rng));
  // Clamp corners: i0 > N, delta/gamma outside [0, 1], a sub-floor N.
  params.push_back({100.0, 0.5, 0.4, 0.3, 500.0});
  params.push_back({100.0, 0.7, 1.7, -0.2, 1.0});
  params.push_back({100.0, 0.7, -0.3, 1.4, 2.0});
  params.push_back({1e-12, 0.5, 0.4, 0.3, 1.0});
  const size_t n = 67;
  for (size_t trial = 0; trial < params.size(); ++trial) {
    const SivParams& p = params[trial];
    const std::vector<double> eps = ScheduleWithZeros(n, &rng);
    // eta shorter than the run: the tail past it reads eta = 0.
    const std::vector<double> eta = RandomSchedule(n / 2, 0.0, 2.0, &rng);
    std::vector<double> full(n);
    kernels::SimulateSivScalarInto(p, eps, eta, full);
    for (size_t t0 = 0; t0 <= n; ++t0) {
      std::vector<double> split(n);
      kernels::SivState state = kernels::SivInitialState(p);
      const std::span<const double> eps_span(eps), eta_span(eta);
      kernels::ResumeSivScalarInto(p, eps_span.first(t0),
                                   eta_span.first(std::min(t0, eta.size())),
                                   &state, std::span<double>(split).first(t0));
      kernels::ResumeSivScalarInto(
          p, eps_span.subspan(t0), eta_span.subspan(std::min(t0, eta.size())),
          &state, std::span<double>(split).subspan(t0));
      for (size_t t = 0; t < n; ++t) {
        ASSERT_EQ(full[t], split[t])
            << "trial " << trial << " t0 " << t0 << " tick " << t;
      }
    }
  }
}

TEST(SivKernelTest, BatchResumeMatchesScalarResumePerLane) {
  // Lane counts 1-9 cover whole vectors and every partial remainder
  // vector.
  for (size_t count = 1; count <= 9; ++count) {
    std::mt19937 rng(300 + count);
    const size_t n = 90;
    const size_t t0 = 17 + count;
    const size_t steps = n - t0;
    std::vector<SivParams> params(count);
    std::vector<kernels::SivState> states(count);
    std::vector<std::vector<double>> eps(count), eta(count);
    std::vector<double> beta(count), delta(count), gamma(count);
    std::vector<double> sn(count), ss(count), si(count), sv(count);
    std::vector<double> eps_soa(steps * count), eta_soa(steps * count);
    for (size_t l = 0; l < count; ++l) {
      params[l] = RandomParams(&rng);
      if (l == 1) params[l].delta = 1.3;   // clamp corners in some lanes
      if (l == 2) params[l].gamma = -0.4;
      if (l == 3) params[l].i0 = 900.0;
      eps[l] = ScheduleWithZeros(n, &rng);
      eta[l] = RandomSchedule(n, 0.0, 2.0, &rng);
      // Each lane's own prefix state at t0.
      std::vector<double> prefix(t0);
      states[l] = kernels::SivInitialState(params[l]);
      kernels::ResumeSivScalarInto(params[l], eps[l], eta[l], &states[l],
                                   prefix);
      beta[l] = params[l].beta;
      delta[l] = params[l].delta;
      gamma[l] = params[l].gamma;
      sn[l] = states[l].n;
      ss[l] = states[l].s;
      si[l] = states[l].i;
      sv[l] = states[l].v;
      for (size_t k = 0; k < steps; ++k) {
        eps_soa[k * count + l] = eps[l][t0 + k];
        eta_soa[k * count + l] = eta[l][t0 + k];
      }
    }
    const kernels::SivBatchSoA batch{nullptr, beta.data(), delta.data(),
                                     gamma.data(), nullptr, eps_soa.data(),
                                     eta_soa.data()};
    const kernels::SivBatchState batch_state{sn.data(), ss.data(), si.data(),
                                             sv.data()};
    std::vector<double> out(steps * count);
    kernels::ResumeSivBatchInto(batch, batch_state, count, steps, out.data());
    for (size_t l = 0; l < count; ++l) {
      std::vector<double> lane(steps);
      kernels::SivState state = states[l];
      kernels::ResumeSivScalarInto(
          params[l], std::span<const double>(eps[l]).subspan(t0),
          std::span<const double>(eta[l]).subspan(t0), &state, lane);
      for (size_t k = 0; k < steps; ++k) {
        ASSERT_EQ(lane[k], out[k * count + l])
            << "count " << count << " lane " << l << " step " << k;
      }
      // The end state continues the scalar run exactly.
      EXPECT_EQ(state.s, ss[l]);
      EXPECT_EQ(state.i, si[l]);
      EXPECT_EQ(state.v, sv[l]);
    }
  }
}

// --- Dual numbers: value path and Jacobians ---------------------------

TEST(DualJacobianTest, DualValuePathBitIdenticalToDouble) {
  std::mt19937 rng(55);
  const SivParams p = RandomParams(&rng);
  const size_t n = 128;
  const std::vector<double> eps = RandomSchedule(n, 0.5, 10.0, &rng);
  std::vector<double> scalar_out(n);
  kernels::SimulateSivScalarInto(p, eps, {}, scalar_out);

  using D = Dual<5>;
  std::vector<D> dual_out(n);
  kernels::SimulateSivT<D>(D::Var(p.population, 0), D::Var(p.beta, 1),
                           D::Var(p.delta, 2), D::Var(p.gamma, 3),
                           D::Var(p.i0, 4), eps, {}, dual_out);
  for (size_t t = 0; t < n; ++t) {
    ASSERT_EQ(scalar_out[t], dual_out[t].v) << "tick " << t;
  }
}

/// Property: the analytic Jacobian agrees with central differences of the
/// scalar recurrence, column by column, over random parameter draws.
TEST(DualJacobianTest, AnalyticMatchesNumericJacobian) {
  std::mt19937 rng(77);
  const size_t n = 96;
  for (int trial = 0; trial < 10; ++trial) {
    const SivParams p = RandomParams(&rng);
    const std::vector<double> eps = RandomSchedule(n, 0.5, 6.0, &rng);
    const std::vector<double> eta = RandomSchedule(n, 0.0, 1.0, &rng);
    std::vector<size_t> observed;
    for (size_t t = 1; t < n; t += 3) observed.push_back(t);

    std::vector<double> jac(observed.size() * kernels::kSivNumParams);
    kernels::SivJacobianInto(p, eps, eta, observed, n, jac.data(),
                             kernels::kSivNumParams);

    double base[5] = {p.population, p.beta, p.delta, p.gamma, p.i0};
    std::vector<double> lo(n), hi(n);
    for (size_t c = 0; c < 5; ++c) {
      const double h = std::max(1e-6 * std::fabs(base[c]), 1e-7);
      double probe[5];
      std::copy(base, base + 5, probe);
      probe[c] = base[c] + h;
      kernels::SimulateSivScalarInto(
          {probe[0], probe[1], probe[2], probe[3], probe[4]}, eps, eta, hi);
      probe[c] = base[c] - h;
      kernels::SimulateSivScalarInto(
          {probe[0], probe[1], probe[2], probe[3], probe[4]}, eps, eta, lo);
      for (size_t k = 0; k < observed.size(); ++k) {
        const double numeric = (hi[observed[k]] - lo[observed[k]]) / (2.0 * h);
        const double analytic = jac[k * kernels::kSivNumParams + c];
        const double scale = std::max({std::fabs(numeric),
                                       std::fabs(analytic), 1.0});
        ASSERT_NEAR(analytic, numeric, 1e-4 * scale)
            << "trial " << trial << " col " << c << " row " << k;
      }
    }
  }
}

TEST(DualJacobianTest, JacobianRowsFollowObservedOrder) {
  // Sparse, non-contiguous observation pattern: row k must differentiate
  // I(observed[k]), not I(k).
  const SivParams p{200.0, 0.5, 0.45, 0.5, 1.0};
  const size_t n = 40;
  const std::vector<size_t> observed = {0, 7, 8, 31, 39};
  std::vector<double> jac(observed.size() * 5);
  kernels::SivJacobianInto(p, {}, {}, observed, n, jac.data(), 5);

  using D = Dual<5>;
  std::vector<D> dual_out(n);
  kernels::SimulateSivT<D>(D::Var(p.population, 0), D::Var(p.beta, 1),
                           D::Var(p.delta, 2), D::Var(p.gamma, 3),
                           D::Var(p.i0, 4), {}, {}, dual_out);
  for (size_t k = 0; k < observed.size(); ++k) {
    for (size_t c = 0; c < 5; ++c) {
      ASSERT_EQ(dual_out[observed[k]].d[c], jac[k * 5 + c]);
    }
  }
}

/// The fused pass against its reference: SivJacobianInto, then GramInto
/// and TransposedTimesInto, compared bit for bit. Observed lists have gaps
/// and repeats; rows with an exactly-zero derivative (ticks before an i0
/// clamped to 0 can grow) and exactly-zero residuals hit both skips.
TEST(DualJacobianTest, NormalEquationsMatchJacobianGramBitForBit) {
  std::mt19937 rng(4242);
  const size_t n = 80;
  for (int trial = 0; trial < 12; ++trial) {
    SivParams p = RandomParams(&rng);
    if (trial == 1) p.i0 = -1.0;      // I = 0 throughout: all-zero rows
    if (trial == 2) p.delta = 1.5;    // clamped rate: zero delta column
    if (trial == 3) p.gamma = -0.1;   // clamped rate: zero gamma column
    if (trial == 4) p.i0 = 2.0 * p.population;  // i0 clamped to N
    const std::vector<double> eps = ScheduleWithZeros(n, &rng);
    const std::vector<double> eta =
        trial % 2 ? RandomSchedule(n, 0.0, 1.0, &rng) : std::vector<double>();
    std::vector<size_t> observed;
    for (size_t t = 0; t < n; ++t) {
      if (t % 5 == 3 || t % 11 == 0) continue;  // gaps
      observed.push_back(t);
      if (t == 40) observed.push_back(t);        // a repeated tick
    }
    std::vector<double> residuals(observed.size());
    std::uniform_real_distribution<double> u(-3.0, 3.0);
    for (size_t k = 0; k < residuals.size(); ++k) {
      residuals[k] = k % 4 == 0 ? 0.0 : u(rng);
    }

    Matrix jac(observed.size(), kernels::kSivNumParams);
    kernels::SivJacobianInto(p, eps, eta, observed, n, jac.MutableData(),
                             kernels::kSivNumParams);
    Matrix expected_jtj;
    jac.GramInto(&expected_jtj);
    std::vector<double> expected_jtr(kernels::kSivNumParams);
    jac.TransposedTimesInto(residuals, expected_jtr);

    double jtj[kernels::kSivNumParams * kernels::kSivNumParams];
    double jtr[kernels::kSivNumParams];
    kernels::SivNormalEquationsInto(p, eps, eta, observed, residuals, n, jtj,
                                    jtr);
    for (size_t i = 0; i < kernels::kSivNumParams; ++i) {
      for (size_t j = 0; j < kernels::kSivNumParams; ++j) {
        ASSERT_EQ(expected_jtj(i, j), jtj[i * kernels::kSivNumParams + j])
            << "trial " << trial << " jtj(" << i << "," << j << ")";
      }
      ASSERT_EQ(expected_jtr[i], jtr[i]) << "trial " << trial << " jtr " << i;
    }
  }
}

/// SIV residual of the base fit with no shocks or growth, for solving the
/// same problem with and without the normal-equations hook.
struct SivBaseProblem {
  std::vector<double> data;
  std::vector<size_t> observed;
  std::vector<double> estimate;

  ResidualIntoFn Residual() {
    return [this](std::span<const double> p, std::span<double> r) -> Status {
      kernels::SimulateSivScalarInto({p[0], p[1], p[2], p[3], p[4]}, {}, {},
                                     estimate);
      for (size_t k = 0; k < observed.size(); ++k) {
        r[k] = estimate[observed[k]] - data[observed[k]];
      }
      return Status::Ok();
    };
  }
};

/// End-to-end cross-check at the fit layer: GLOBALFIT (whose base LM uses
/// the fused normal equations) lands on the fit that LM's forward-difference
/// path finds for the same residual from the same starts and bounds.
TEST(DualJacobianTest, GlobalFitAnalyticMatchesNumericWithinTolerance) {
  const size_t n = 104;
  Series data(n);
  SivBaseProblem problem;
  {
    const SivParams truth{180.0, 0.55, 0.4, 0.45, 1.5};
    problem.data.resize(n);
    kernels::SimulateSivScalarInto(truth, {}, {}, problem.data);
    for (size_t t = 0; t < n; ++t) data[t] = problem.data[t];
  }
  GlobalFitOptions options;
  options.allow_shocks = false;
  options.allow_growth = false;
  auto analytic = FitGlobalSequence(data, 0, 1, options);
  ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();

  // FitBaseParams' multi-start solve (bounds and starts as in
  // core/global_fit.cc) on the numeric path, then one warm re-solve like
  // the first alternation round.
  problem.observed.resize(n);
  for (size_t t = 0; t < n; ++t) problem.observed[t] = t;
  problem.estimate.resize(n);
  const double peak = std::max(data.MaxValue(), 1.0);
  Bounds bounds;
  bounds.lower = {peak * 1.05, 1e-4, 1e-4, 1e-4, 1e-6};
  bounds.upper = {peak * 300.0, 5.0, 1.0, 1.0, peak};
  const std::vector<std::vector<double>> starts = {
      {peak * 2.0, 0.3, 0.1, 0.05, 1.0},
      {peak * 2.0, 0.6, 0.4, 0.2, 1.0},
      {peak * 5.0, 0.9, 0.7, 0.5, peak * 0.01},
      {peak * 1.5, 0.2, 0.5, 0.1, peak * 0.05},
  };
  LmWorkspace ws;
  std::vector<double> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& init : starts) {
    auto fit = LevenbergMarquardt(problem.Residual(), n, init, bounds,
                                  LmOptions(), &ws);
    if (fit.ok() && fit->final_cost < best_cost) {
      best_cost = fit->final_cost;
      best = fit->params;
    }
  }
  ASSERT_FALSE(best.empty());
  auto numeric = LevenbergMarquardt(problem.Residual(), n, best, bounds,
                                    LmOptions(), &ws);
  ASSERT_TRUE(numeric.ok()) << numeric.status().ToString();
  std::vector<double> estimate(n);
  const std::vector<double>& q = numeric->params;
  kernels::SimulateSivScalarInto({q[0], q[1], q[2], q[3], q[4]}, {}, {},
                                 estimate);
  const double numeric_rmse = Rmse(problem.data, estimate);

  EXPECT_NEAR(analytic->rmse, numeric_rmse, 1e-3 * std::max(1.0, numeric_rmse));
  const double params_a[] = {analytic->params.population, analytic->params.beta,
                             analytic->params.delta, analytic->params.gamma};
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(params_a[k], q[k], 1e-2 * std::max(1.0, std::fabs(q[k])))
        << "param " << k;
  }
}

/// FitSirs (normal-equations hook over its dual trajectory) and LM's
/// forward-difference path on the same SIRS residual, starts and bounds
/// (as in epidemics/sir_family.cc) both explain noise-free data.
TEST(DualJacobianTest, EpidemicFitsAgreeAcrossJacobianModes) {
  const size_t n = 80;
  SirsParams truth;
  truth.population = 300.0;
  truth.beta = 0.6;
  truth.delta = 0.3;
  truth.gamma = 0.1;
  truth.i0 = 2.0;
  const Series data = SimulateSirs(truth, n);

  auto fit_a = FitSirs(data);
  ASSERT_TRUE(fit_a.ok()) << fit_a.status().ToString();

  std::vector<double> estimate(n);
  ResidualIntoFn residual = [&](std::span<const double> p,
                                std::span<double> r) -> Status {
    SimulateSirsInto({p[0], p[1], p[2], p[3], p[4]}, estimate);
    for (size_t t = 0; t < n; ++t) r[t] = estimate[t] - data[t];
    return Status::Ok();
  };
  const double peak = std::max(data.MaxValue(), 1.0);
  Bounds bounds;
  bounds.lower = {peak * 1.05, 1e-6, 1e-6, 1e-6, 1e-6};
  bounds.upper = {peak * 100.0, 5.0, 1.0, 1.0, peak};
  const double starts[][3] = {
      {0.3, 0.1, 0.05}, {0.6, 0.4, 0.2}, {0.9, 0.7, 0.5}, {0.2, 0.5, 0.1}};
  LmWorkspace ws;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<double> best;
  for (const auto& start : starts) {
    auto fit = LevenbergMarquardt(
        residual, n, {peak * 2.0, start[0], start[1], start[2], 1.0}, bounds,
        LmOptions(), &ws);
    if (fit.ok() && fit->final_cost < best_cost) {
      best_cost = fit->final_cost;
      best = fit->params;
    }
  }
  ASSERT_FALSE(best.empty());
  SimulateSirsInto({best[0], best[1], best[2], best[3], best[4]}, estimate);
  const double numeric_rmse =
      Rmse(std::span<const double>(data.values()),
           std::span<const double>(estimate));
  // Both modes must explain the data essentially perfectly (noise-free
  // input) and land on comparable optima.
  EXPECT_LT(fit_a->info.rmse, 1e-3 * truth.population);
  EXPECT_LT(numeric_rmse, 1e-3 * truth.population);
}

// --- reductions: golden tolerance & mask equivalence ------------------

TEST(ReduceKernelTest, SumSquaresWithinGoldenTolerance) {
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> u(-5.0, 5.0);
  for (const size_t n : {0ul, 1ul, 3ul, 8ul, 17ul, 1000ul, 4097ul}) {
    std::vector<double> v(n);
    for (double& x : v) x = u(rng);
    double scalar = 0.0;
    for (const double x : v) scalar += x * x;
    const double simd = kernels::SumSquares(v);
    const double tol =
        simd::kReduceRelTol * static_cast<double>(std::max<size_t>(n, 1)) *
        std::max(std::fabs(scalar), 1.0);
    EXPECT_NEAR(simd, scalar, tol) << "n " << n;
  }
}

TEST(ReduceKernelTest, ResidualIntoBitIdentical) {
  std::mt19937 rng(41);
  std::uniform_real_distribution<double> u(-5.0, 5.0);
  const size_t n = 301;
  std::vector<double> estimate(n), data(n), out(n);
  for (size_t t = 0; t < n; ++t) {
    estimate[t] = u(rng);
    data[t] = u(rng);
  }
  kernels::ResidualInto(estimate, data, out);
  for (size_t t = 0; t < n; ++t) {
    ASSERT_EQ(estimate[t] - data[t], out[t]);
  }
}

TEST(ReduceKernelTest, MaskedMomentsSkipExactlyNonFiniteResiduals) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> actual = {1.0, kMissingValue, 3.0, inf, 5.0, 6.0, 2.0};
  std::vector<double> estimate = {0.5, 1.0, kMissingValue, 2.0, -inf, 5.0,
                                  1.0};
  // Scalar reference with the historical skip rule.
  double count = 0.0, sum = 0.0;
  for (size_t t = 0; t < actual.size(); ++t) {
    if (IsMissing(actual[t]) || IsMissing(estimate[t])) continue;
    const double r = actual[t] - estimate[t];
    if (!std::isfinite(r)) continue;
    count += 1.0;
    sum += r;
  }
  const kernels::MaskedMoments m =
      kernels::MaskedResidualMoments(actual, estimate);
  EXPECT_EQ(count, m.count);
  EXPECT_NEAR(sum, m.sum, 1e-12 * std::max(std::fabs(sum), 1.0));

  const double mean = m.sum / m.count;
  double ss = 0.0;
  for (size_t t = 0; t < actual.size(); ++t) {
    if (IsMissing(actual[t]) || IsMissing(estimate[t])) continue;
    const double r = actual[t] - estimate[t];
    if (!std::isfinite(r)) continue;
    ss += (r - mean) * (r - mean);
  }
  const double simd_ss =
      kernels::MaskedResidualSumSqDev(actual, estimate, mean);
  EXPECT_NEAR(ss, simd_ss, 1e-12 * std::max(ss, 1.0));
}

TEST(ReduceKernelTest, ResidualVectorOverloadMatchesTwoSpanForm) {
  std::mt19937 rng(61);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  const size_t n = 517;
  std::vector<double> actual(n), estimate(n), residuals(n);
  for (size_t t = 0; t < n; ++t) {
    actual[t] = u(rng);
    estimate[t] = u(rng);
    residuals[t] = actual[t] - estimate[t];
  }
  for (size_t t = 0; t < n; t += 53) {
    actual[t] = kMissingValue;
    residuals[t] = kMissingValue;
  }
  const kernels::MaskedMoments two_span =
      kernels::MaskedResidualMoments(actual, estimate);
  const kernels::MaskedMoments vec = kernels::MaskedMomentsOf(residuals);
  // Identical accumulation structure => identical bits.
  EXPECT_EQ(two_span.count, vec.count);
  EXPECT_EQ(two_span.sum, vec.sum);
  const double mean = vec.sum / vec.count;
  EXPECT_EQ(kernels::MaskedResidualSumSqDev(actual, estimate, mean),
            kernels::MaskedSumSqDevOf(residuals, mean));
}

TEST(ReduceKernelTest, ReportsIsaAndLanes) {
  EXPECT_GE(kernels::SimdNumLanes(), 1u);
  EXPECT_NE(kernels::SimdIsaName(), nullptr);
}

// --- calendar: branch-free arithmetic & pre-epoch ---------------------

TEST(CalendarKernelTest, FloorDivFloorModPreEpoch) {
  EXPECT_EQ(kernels::FloorDiv(0, 86400), 0);
  EXPECT_EQ(kernels::FloorDiv(86399, 86400), 0);
  EXPECT_EQ(kernels::FloorDiv(86400, 86400), 1);
  EXPECT_EQ(kernels::FloorDiv(-1, 86400), -1);
  EXPECT_EQ(kernels::FloorDiv(-86400, 86400), -1);
  EXPECT_EQ(kernels::FloorDiv(-86401, 86400), -2);
  EXPECT_EQ(kernels::FloorMod(-1, 86400), 86399);
  EXPECT_EQ(kernels::FloorMod(-86400, 86400), 0);
  // FloorDiv/FloorMod identity on a grid straddling zero.
  for (int64_t a = -300; a <= 300; ++a) {
    for (const int64_t b : {1, 2, 7, 86400}) {
      EXPECT_EQ(kernels::FloorDiv(a, b) * b + kernels::FloorMod(a, b), a);
      EXPECT_GE(kernels::FloorMod(a, b), 0);
      EXPECT_LT(kernels::FloorMod(a, b), b);
    }
  }
}

TEST(CalendarKernelTest, CivilRoundTripIncludingPreEpoch) {
  for (int64_t day = -800000; day <= 800000; day += 37) {
    const kernels::CivilDay c = kernels::CivilFromDays(day);
    EXPECT_EQ(kernels::DaysFromCivil(c.year, c.month, c.day), day);
    EXPECT_GE(c.month, 1);
    EXPECT_LE(c.month, 12);
    EXPECT_GE(c.day, 1);
    EXPECT_LE(c.day, 31);
  }
  const kernels::CivilDay epoch = kernels::CivilFromDays(0);
  EXPECT_EQ(epoch.year, 1970);
  EXPECT_EQ(epoch.month, 1);
  EXPECT_EQ(epoch.day, 1);
  const kernels::CivilDay before = kernels::CivilFromDays(-1);
  EXPECT_EQ(before.year, 1969);
  EXPECT_EQ(before.month, 12);
  EXPECT_EQ(before.day, 31);
  EXPECT_EQ(before.yday, 364);
}

TEST(CalendarKernelTest, BucketIndicesTilePreEpochBoundary) {
  // The historical truncate-toward-zero bug folded seconds -86400..-1 and
  // 0..86399 into the same day bucket; floor bucketing must not.
  EXPECT_EQ(kernels::DaysFromSeconds(0), 0);
  EXPECT_EQ(kernels::DaysFromSeconds(86399), 0);
  EXPECT_EQ(kernels::DaysFromSeconds(-1), -1);
  EXPECT_EQ(kernels::DaysFromSeconds(-86400), -1);
  EXPECT_EQ(kernels::DaysFromSeconds(-86401), -2);
  // 1970-01-01 was a Thursday; ISO weeks start Monday. Day -3 is Monday
  // 1969-12-29 (week 0 starts there); day -4 is Sunday, week -1.
  EXPECT_EQ(kernels::WeekIndexFromDays(0), 0);
  EXPECT_EQ(kernels::WeekIndexFromDays(3), 0);
  EXPECT_EQ(kernels::WeekIndexFromDays(4), 1);
  EXPECT_EQ(kernels::WeekIndexFromDays(-3), 0);
  EXPECT_EQ(kernels::WeekIndexFromDays(-4), -1);
  EXPECT_EQ(kernels::MonthIndexFromDays(0), 0);
  EXPECT_EQ(kernels::MonthIndexFromDays(30), 0);
  EXPECT_EQ(kernels::MonthIndexFromDays(31), 1);
  EXPECT_EQ(kernels::MonthIndexFromDays(-1), -1);
  EXPECT_EQ(kernels::MonthIndexFromDays(-31), -1);
  EXPECT_EQ(kernels::MonthIndexFromDays(-32), -2);
  EXPECT_EQ(kernels::YearFromDays(0), 1970);
  EXPECT_EQ(kernels::YearFromDays(-1), 1969);
  EXPECT_EQ(kernels::YearFromDays(365), 1971);
}

// --- event log: calendar bucketing, pre-1970 regression ---------------

EventRecord Rec(const char* kw, const char* loc, int64_t ts,
                double count = 1.0) {
  EventRecord r;
  r.keyword = kw;
  r.location = loc;
  r.timestamp = ts;
  r.count = count;
  return r;
}

TEST(EventLogCalendarTest, DayBucketsPre1970) {
  AggregationConfig config;
  config.calendar_unit = CalendarUnit::kDay;
  config.origin = -3 * 86400;  // 1969-12-29
  const std::vector<EventRecord> records = {
      Rec("flu", "us", -3 * 86400),      // first second of origin day
      Rec("flu", "us", -2 * 86400 - 1),  // last second of origin day
      Rec("flu", "us", -1),              // 1969-12-31 -> tick 2
      Rec("flu", "us", 0),               // 1970-01-01 -> tick 3
      Rec("flu", "us", 86399),           // still tick 3
      Rec("flu", "us", 86400),           // tick 4
  };
  auto tensor = AggregateEvents(records, config);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  ASSERT_EQ(tensor->num_ticks(), 5u);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 2), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 3), 2.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 4), 1.0);
}

TEST(EventLogCalendarTest, WeekBucketsAlignToMondayAcrossEpoch) {
  AggregationConfig config;
  config.calendar_unit = CalendarUnit::kWeek;
  config.origin = -7 * 86400;  // Thursday 1969-12-25, week -1
  const std::vector<EventRecord> records = {
      Rec("a", "x", -7 * 86400),      // week of Mon 1969-12-22 -> tick 0
      Rec("a", "x", -3 * 86400),      // Mon 1969-12-29 -> tick 1
      Rec("a", "x", 0),               // Thu 1970-01-01, same ISO week
      Rec("a", "x", 4 * 86400),       // Mon 1970-01-05 -> tick 2
  };
  auto tensor = AggregateEvents(records, config);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  ASSERT_EQ(tensor->num_ticks(), 3u);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 2), 1.0);
}

TEST(EventLogCalendarTest, MonthBucketsHaveTrueLengths) {
  AggregationConfig config;
  config.calendar_unit = CalendarUnit::kMonth;
  config.origin = kernels::DaysFromCivil(1969, 11, 1) * 86400;
  const std::vector<EventRecord> records = {
      Rec("a", "x", kernels::DaysFromCivil(1969, 11, 30) * 86400),  // Nov 69
      Rec("a", "x", kernels::DaysFromCivil(1969, 12, 1) * 86400),   // Dec 69
      Rec("a", "x", kernels::DaysFromCivil(1970, 1, 31) * 86400),   // Jan 70
      Rec("a", "x", kernels::DaysFromCivil(1970, 2, 1) * 86400),    // Feb 70
  };
  auto tensor = AggregateEvents(records, config);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  ASSERT_EQ(tensor->num_ticks(), 4u);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(tensor->at(0, 0, t), 1.0) << "tick " << t;
  }
}

TEST(EventLogCalendarTest, PreOriginRecordsStillRejected) {
  AggregationConfig config;
  config.calendar_unit = CalendarUnit::kDay;
  config.origin = 0;
  EventAggregator aggregator(config);
  EXPECT_FALSE(aggregator.Add(Rec("a", "x", -1)).ok());
  EXPECT_TRUE(aggregator.Add(Rec("a", "x", 0)).ok());
}

TEST(EventLogCalendarTest, RawModeUnchangedAndFloorSafe) {
  // kNone keeps the historical fixed-width semantics (timestamp >= origin
  // enforced, truncating == floor on the non-negative difference),
  // including with a negative origin.
  AggregationConfig config;
  config.ticks_resolution = 10;
  config.origin = -25;
  const std::vector<EventRecord> records = {
      Rec("a", "x", -25),  // tick 0
      Rec("a", "x", -16),  // tick 0
      Rec("a", "x", -15),  // tick 1
      Rec("a", "x", 5),    // tick 3
  };
  auto tensor = AggregateEvents(records, config);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  ASSERT_EQ(tensor->num_ticks(), 4u);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 3), 1.0);
}

}  // namespace
}  // namespace dspot
