// Unit and property tests for src/optimize: Levenberg-Marquardt,
// Nelder-Mead and the 1-d searches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/random.h"
#include "kernels/siv_kernel.h"
#include "optimize/levenberg_marquardt.h"
#include "optimize/line_search.h"
#include "optimize/nelder_mead.h"

namespace dspot {
namespace {

Status RosenbrockResiduals(const std::vector<double>& p,
                           std::vector<double>* r) {
  r->assign({10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]});
  return Status::Ok();
}

TEST(LevenbergMarquardt, SolvesRosenbrock) {
  auto result = LevenbergMarquardt(RosenbrockResiduals, {-1.2, 1.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->params[0], 1.0, 1e-4);
  EXPECT_NEAR(result->params[1], 1.0, 1e-4);
  EXPECT_LT(result->final_cost, 1e-8);
  EXPECT_LT(result->final_cost, result->initial_cost);
}

TEST(LevenbergMarquardt, LinearLeastSquaresExact) {
  // r(p) = A p - b with A = diag(1, 2), b = (3, 8): minimum at (3, 4).
  auto residual = [](const std::vector<double>& p,
                     std::vector<double>* r) -> Status {
    r->assign({p[0] - 3.0, 2.0 * p[1] - 8.0});
    return Status::Ok();
  };
  auto result = LevenbergMarquardt(residual, {0.0, 0.0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->params[0], 3.0, 1e-6);
  EXPECT_NEAR(result->params[1], 4.0, 1e-6);
}

TEST(LevenbergMarquardt, RespectsBounds) {
  // Unconstrained optimum at 3, but the box caps it at 2.
  auto residual = [](const std::vector<double>& p,
                     std::vector<double>* r) -> Status {
    r->assign({p[0] - 3.0});
    return Status::Ok();
  };
  Bounds bounds;
  bounds.lower = {0.0};
  bounds.upper = {2.0};
  auto result = LevenbergMarquardt(residual, {1.0}, bounds);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->params[0], 2.0, 1e-6);
}

TEST(LevenbergMarquardt, ClampsInitialOutsideBounds) {
  auto residual = [](const std::vector<double>& p,
                     std::vector<double>* r) -> Status {
    r->assign({p[0]});
    return Status::Ok();
  };
  Bounds bounds;
  bounds.lower = {1.0};
  bounds.upper = {5.0};
  auto result = LevenbergMarquardt(residual, {100.0}, bounds);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->params[0], 1.0);
  EXPECT_LE(result->params[0], 5.0);
}

TEST(LevenbergMarquardt, RejectsEmptyParams) {
  EXPECT_FALSE(LevenbergMarquardt(RosenbrockResiduals, {}).ok());
}

TEST(LevenbergMarquardt, RejectsBoundsSizeMismatch) {
  Bounds bounds;
  bounds.lower = {0.0};
  bounds.upper = {1.0};
  EXPECT_EQ(
      LevenbergMarquardt(RosenbrockResiduals, {0.0, 0.0}, bounds).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(LevenbergMarquardt, PropagatesResidualError) {
  auto residual = [](const std::vector<double>&, std::vector<double>* r) {
    r->assign({0.0});
    return Status::Internal("boom");
  };
  auto result = LevenbergMarquardt(residual, {1.0});
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(LevenbergMarquardt, NeverIncreasesCost) {
  // Even on a nasty multimodal residual, the accepted iterate sequence is
  // monotone by construction: final <= initial.
  auto residual = [](const std::vector<double>& p,
                     std::vector<double>* r) -> Status {
    r->assign({std::sin(5.0 * p[0]) + 0.1 * p[0] * p[0]});
    return Status::Ok();
  };
  for (double start : {-3.0, -1.0, 0.4, 2.7}) {
    auto result = LevenbergMarquardt(residual, {start});
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->final_cost, result->initial_cost + 1e-15);
  }
}

/// Property sweep: LM recovers the parameters of an exponential-decay model
/// from exact data, across a range of true parameter values.
class LmExponentialRecovery
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LmExponentialRecovery, RecoversParameters) {
  const auto [a_true, k_true] = GetParam();
  std::vector<double> ts;
  for (int t = 0; t < 30; ++t) ts.push_back(0.2 * t);
  auto residual = [&](const std::vector<double>& p,
                      std::vector<double>* r) -> Status {
    r->clear();
    for (double t : ts) {
      r->push_back(p[0] * std::exp(-p[1] * t) -
                   a_true * std::exp(-k_true * t));
    }
    return Status::Ok();
  };
  Bounds bounds;
  bounds.lower = {0.01, 0.01};
  bounds.upper = {100.0, 10.0};
  auto result = LevenbergMarquardt(residual, {1.0, 1.0}, bounds);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->params[0], a_true, 1e-3 * a_true);
  EXPECT_NEAR(result->params[1], k_true, 1e-3 * std::max(k_true, 0.1));
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, LmExponentialRecovery,
    ::testing::Combine(::testing::Values(0.5, 2.0, 10.0),
                       ::testing::Values(0.1, 0.7, 2.5)));

// --- Lock-step LM (LevenbergMarquardtLockstep) ---------------------------

/// One SIV fit for the lock-step tests: data from planted parameters and a
/// shock schedule, a start, and options. Residuals at exactly `poisoned`
/// are NaN, so a start placed there has a non-finite initial cost.
struct SivLmCase {
  std::vector<double> data;
  std::vector<double> eps;
  std::vector<size_t> observed;
  std::vector<double> initial;
  std::vector<double> poisoned;
  Bounds bounds;
  LmOptions options;
};

constexpr size_t kSivTicks = 80;

SivLmCase MakeSivCase(const kernels::SivParams& truth, size_t shock_at,
                      std::vector<double> initial) {
  SivLmCase c;
  c.eps.assign(kSivTicks, 1.0);
  for (size_t t = shock_at; t < shock_at + 3; ++t) c.eps[t] = 6.0;
  c.data.resize(kSivTicks);
  kernels::SimulateSivScalarInto(truth, c.eps, {}, c.data);
  for (size_t t = 0; t < kSivTicks; ++t) {
    c.data[t] += 0.5 * std::sin(0.7 * static_cast<double>(t));
    c.observed.push_back(t);
  }
  c.initial = std::move(initial);
  c.bounds.lower = {50.0, 1e-3, 1e-3, 1e-3, 0.1};
  c.bounds.upper = {2000.0, 3.0, 1.0, 1.0, 20.0};
  return c;
}

/// Fills the residuals of `c` at `p` from a simulated trajectory `sim`.
void SivCaseResiduals(const SivLmCase& c, std::span<const double> p,
                      std::span<const double> sim, std::span<double> r) {
  const bool poisoned = std::equal(p.begin(), p.end(), c.poisoned.begin(),
                                   c.poisoned.end());
  for (size_t t = 0; t < kSivTicks; ++t) {
    r[t] = poisoned ? std::numeric_limits<double>::quiet_NaN()
                    : sim[t] - c.data[t];
  }
}

/// The serial LevenbergMarquardt call on `c` alone.
StatusOr<LmResult> SolveSerially(const SivLmCase& c) {
  std::vector<double> sim(kSivTicks);
  ResidualIntoFn fn = [&](std::span<const double> p, std::span<double> r) {
    kernels::SimulateSivScalarInto({p[0], p[1], p[2], p[3], p[4]}, c.eps, {},
                                   sim);
    SivCaseResiduals(c, p, sim, r);
    return Status::Ok();
  };
  LmWorkspace ws;
  return LevenbergMarquardt(fn, kSivTicks, c.initial, c.bounds, c.options,
                            &ws);
}

/// The cases through LevenbergMarquardtLockstep, every residual round one
/// SimulateSivBatchInto call with the waiting points as lanes.
std::vector<StatusOr<LmResult>> SolveInLockstep(
    const std::vector<SivLmCase>& cases, size_t* max_lanes = nullptr) {
  std::vector<LmWorkspace> workspaces(cases.size());
  std::vector<LmProblem> problems;
  for (size_t k = 0; k < cases.size(); ++k) {
    problems.push_back({cases[k].initial, kSivTicks, &cases[k].bounds,
                        &cases[k].options, &workspaces[k]});
  }
  const auto batch = [&](std::span<LmResidualRequest> requests) {
    const size_t lanes = requests.size();
    if (max_lanes != nullptr) *max_lanes = std::max(*max_lanes, lanes);
    std::vector<double> soa(5 * lanes), eps(kSivTicks * lanes),
        out(kSivTicks * lanes), sim(kSivTicks);
    for (size_t l = 0; l < lanes; ++l) {
      for (size_t p = 0; p < 5; ++p) {
        soa[p * lanes + l] = requests[l].params[p];
      }
      for (size_t t = 0; t < kSivTicks; ++t) {
        eps[t * lanes + l] = cases[requests[l].problem].eps[t];
      }
    }
    const kernels::SivBatchSoA soa_batch{
        soa.data(),             soa.data() + lanes, soa.data() + 2 * lanes,
        soa.data() + 3 * lanes, soa.data() + 4 * lanes, eps.data(),
        nullptr};
    kernels::SimulateSivBatchInto(soa_batch, lanes, kSivTicks, out.data());
    for (size_t l = 0; l < lanes; ++l) {
      for (size_t t = 0; t < kSivTicks; ++t) sim[t] = out[t * lanes + l];
      SivCaseResiduals(cases[requests[l].problem], requests[l].params, sim,
                       requests[l].residuals);
    }
  };
  return LevenbergMarquardtLockstep(problems, batch);
}

/// Five fits that end differently: converged with the fused normal
/// equations, a restart from a non-finite initial cost, a stall at
/// max_lambda, max_iterations, and converged on the numeric Jacobian.
std::vector<SivLmCase> LockstepCases() {
  std::vector<SivLmCase> cases;
  cases.push_back(MakeSivCase({300.0, 0.5, 0.4, 0.3, 1.0}, 20,
                              {200.0, 0.4, 0.3, 0.2, 2.0}));
  cases.push_back(MakeSivCase({500.0, 0.7, 0.5, 0.2, 2.0}, 35,
                              {400.0, 0.6, 0.6, 0.3, 1.0}));
  cases.back().poisoned = cases.back().initial;
  cases.push_back(MakeSivCase({250.0, 0.6, 0.45, 0.5, 1.5}, 50,
                              {150.0, 0.3, 0.2, 0.4, 3.0}));
  cases.back().options.max_lambda = kLmInitialLambda;
  cases.push_back(MakeSivCase({800.0, 0.9, 0.7, 0.1, 4.0}, 10,
                              {600.0, 0.5, 0.5, 0.5, 1.0}));
  cases.back().options.max_iterations = 4;
  cases.push_back(MakeSivCase({350.0, 0.55, 0.35, 0.25, 1.2}, 60,
                              {330.0, 0.5, 0.3, 0.2, 1.0}));
  for (size_t k : {2ul, 3ul}) {
    cases[k].options.cost_tolerance = 0.0;
    cases[k].options.step_tolerance = 0.0;
    cases[k].options.gradient_tolerance = 0.0;
  }
  // All but the last use the fused normal equations.
  for (size_t k = 0; k + 1 < cases.size(); ++k) {
    cases[k].options.normal_equations =
        [eps = cases[k].eps, observed = cases[k].observed](
            std::span<const double> p, std::span<const double> r,
            Matrix* jtj, std::span<double> jtr) {
          kernels::SivNormalEquationsInto({p[0], p[1], p[2], p[3], p[4]}, eps,
                                          {}, observed, r, kSivTicks,
                                          jtj->MutableData(), jtr.data());
          return Status::Ok();
        };
  }
  return cases;
}

TEST(LmLockstep, EveryProblemMatchesItsSerialSolveBitForBit) {
  const std::vector<SivLmCase> all = LockstepCases();
  for (size_t count = 1; count <= all.size(); ++count) {
    const std::vector<SivLmCase> cases(all.begin(), all.begin() + count);
    size_t max_lanes = 0;
    const std::vector<StatusOr<LmResult>> lockstep =
        SolveInLockstep(cases, &max_lanes);
    ASSERT_EQ(lockstep.size(), count);
    EXPECT_EQ(max_lanes, count);
    for (size_t k = 0; k < count; ++k) {
      const StatusOr<LmResult> serial = SolveSerially(cases[k]);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ASSERT_TRUE(lockstep[k].ok()) << lockstep[k].status().ToString();
      const LmResult& a = *serial;
      const LmResult& b = *lockstep[k];
      EXPECT_EQ(a.params, b.params) << "count " << count << " problem " << k;
      EXPECT_EQ(a.final_cost, b.final_cost);
      EXPECT_EQ(a.initial_cost, b.initial_cost);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.converged, b.converged);
      EXPECT_EQ(a.health.restarts, b.health.restarts);
      EXPECT_EQ(a.health.termination, b.health.termination);
    }
  }
}

TEST(LmLockstep, CasesCoverRestartStallAndIterationCap) {
  const std::vector<StatusOr<LmResult>> results =
      SolveInLockstep(LockstepCases());
  ASSERT_EQ(results.size(), 5u);
  for (const StatusOr<LmResult>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(results[0]->health.termination, FitTermination::kConverged);
  EXPECT_EQ(results[1]->health.restarts, 1);
  EXPECT_TRUE(std::isfinite(results[1]->final_cost));
  EXPECT_EQ(results[2]->health.termination, FitTermination::kStalled);
  EXPECT_EQ(results[3]->health.termination, FitTermination::kMaxIterations);
  EXPECT_EQ(results[3]->iterations, 4);
  EXPECT_EQ(results[4]->health.termination, FitTermination::kConverged);
  // The iteration counts differ, so solves leave the group at different
  // rounds.
  EXPECT_NE(results[0]->iterations, results[1]->iterations);
  EXPECT_NE(results[0]->iterations, results[2]->iterations);
  EXPECT_NE(results[0]->iterations, results[4]->iterations);
}

TEST(LmLockstep, CancelledTokenEndsEverySolve) {
  std::vector<SivLmCase> cases = LockstepCases();
  const CancellationToken token = CancellationToken::Cancellable();
  token.Cancel();
  for (SivLmCase& c : cases) c.options.guard.cancel = token;
  const std::vector<StatusOr<LmResult>> results = SolveInLockstep(cases);
  ASSERT_EQ(results.size(), cases.size());
  for (const StatusOr<LmResult>& result : results) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
  }
}

TEST(LmLockstep, InvalidProblemsFailAloneAndResidualErrorsStayPerProblem) {
  std::vector<SivLmCase> cases = LockstepCases();
  cases.resize(3);
  cases[1].initial.clear();
  std::vector<LmWorkspace> workspaces(cases.size());
  std::vector<LmProblem> problems;
  for (size_t k = 0; k < cases.size(); ++k) {
    problems.push_back({cases[k].initial, kSivTicks, &cases[k].bounds,
                        &cases[k].options, &workspaces[k]});
  }
  problems.push_back({cases[0].initial, kSivTicks, &cases[0].bounds,
                      &cases[0].options, nullptr});
  std::vector<double> sim(kSivTicks);
  const auto batch = [&](std::span<LmResidualRequest> requests) {
    for (LmResidualRequest& request : requests) {
      if (request.problem == 2) {
        request.status = Status::Internal("residuals unavailable");
        continue;
      }
      const SivLmCase& c = cases[request.problem];
      const std::span<const double> p = request.params;
      kernels::SimulateSivScalarInto({p[0], p[1], p[2], p[3], p[4]}, c.eps,
                                     {}, sim);
      SivCaseResiduals(c, p, sim, request.residuals);
    }
  };
  const std::vector<StatusOr<LmResult>> results =
      LevenbergMarquardtLockstep(problems, batch);
  ASSERT_EQ(results.size(), 4u);
  const StatusOr<LmResult> serial = SolveSerially(cases[0]);
  ASSERT_TRUE(results[0].ok() && serial.ok());
  EXPECT_EQ(results[0]->params, serial->params);
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[2].status().code(), StatusCode::kInternal);
  EXPECT_EQ(results[3].status().code(), StatusCode::kInvalidArgument);
}

TEST(NelderMead, MinimizesQuadratic) {
  auto fn = [](const std::vector<double>& p) {
    return (p[0] - 1.0) * (p[0] - 1.0) + 2.0 * (p[1] + 2.0) * (p[1] + 2.0);
  };
  auto result = NelderMead(fn, {5.0, 5.0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->params[0], 1.0, 1e-3);
  EXPECT_NEAR(result->params[1], -2.0, 1e-3);
}

TEST(NelderMead, MinimizesRosenbrockScalar) {
  auto fn = [](const std::vector<double>& p) {
    return 100.0 * std::pow(p[1] - p[0] * p[0], 2) + std::pow(1.0 - p[0], 2);
  };
  NelderMeadOptions options;
  options.max_evaluations = 8000;
  auto result = NelderMead(fn, {-1.2, 1.0}, Bounds(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->params[0], 1.0, 5e-2);
  EXPECT_NEAR(result->params[1], 1.0, 1e-1);
}

TEST(NelderMead, HonorsBounds) {
  auto fn = [](const std::vector<double>& p) { return p[0]; };
  Bounds bounds;
  bounds.lower = {-1.0};
  bounds.upper = {1.0};
  auto result = NelderMead(fn, {0.5}, bounds);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->params[0], -1.0 - 1e-12);
}

TEST(NelderMead, SurvivesInfiniteRegions) {
  // +inf outside the unit disk; minimum at origin.
  auto fn = [](const std::vector<double>& p) {
    const double r2 = p[0] * p[0] + p[1] * p[1];
    if (r2 > 1.0) return std::numeric_limits<double>::infinity();
    return r2;
  };
  auto result = NelderMead(fn, {0.5, 0.5});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->final_value, 0.05);
}

TEST(NelderMead, RejectsEmpty) {
  EXPECT_FALSE(NelderMead([](const std::vector<double>&) { return 0.0; }, {})
                   .ok());
}

TEST(LineSearch, GoldenSectionFindsParabolaMin) {
  auto fn = [](double x) { return (x - 1.7) * (x - 1.7); };
  EXPECT_NEAR(GoldenSectionMinimize(fn, -10.0, 10.0, 1e-10), 1.7, 1e-6);
}

TEST(LineSearch, GoldenSectionSwapsBounds) {
  auto fn = [](double x) { return (x - 1.7) * (x - 1.7); };
  EXPECT_NEAR(GoldenSectionMinimize(fn, 10.0, -10.0, 1e-10), 1.7, 1e-6);
}

TEST(LineSearch, GridMinimizeHitsBestCell) {
  auto fn = [](double x) { return std::fabs(x - 3.0); };
  EXPECT_NEAR(GridMinimize(fn, 0.0, 10.0, 10), 3.0, 1e-12);
}

TEST(LineSearch, GridMinimizeDegenerate) {
  auto fn = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(GridMinimize(fn, 5.0, 5.0, 10), 5.0);
  EXPECT_DOUBLE_EQ(GridMinimize(fn, 0.0, 1.0, 0), 0.0);
}

TEST(LineSearch, GridMinimizeBatchMatchesScalarPath) {
  // Value tables over an 11-point grid on [0, 10] (x = i): NaN and +-inf
  // never win, ties go to the first index, and a grid with no finite value
  // returns lo. The batch path must return the scalar path's abscissa.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> tables = {
      {5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5},
      {nan, 4, 3, nan, 1, -inf, 1, 2, 1, 4, 5},
      {2, 1, 7, 1, 1, 9, 1, 2, 3, 4, 5},        // ties: first wins
      {nan, nan, inf, -inf, nan, inf, nan, nan, nan, nan, nan},
      {inf, 3, 3, 3, -inf, 3, 3, 3, 3, 3, 0.5},
  };
  for (size_t k = 0; k < tables.size(); ++k) {
    const std::vector<double>& f = tables[k];
    auto fn = [&](double x) { return f[static_cast<size_t>(x)]; };
    size_t batch_calls = 0;
    BatchScalar1dFn batch = [&](std::span<const double> xs,
                                std::span<double> fs) {
      ++batch_calls;
      ASSERT_EQ(xs.size(), f.size());
      for (size_t i = 0; i < xs.size(); ++i) fs[i] = fn(xs[i]);
    };
    const double scalar = GridMinimize(fn, 0.0, 10.0, 10);
    const double batched = GridMinimize(fn, 0.0, 10.0, 10, batch);
    EXPECT_EQ(scalar, batched) << "table " << k;
    EXPECT_EQ(batch_calls, 1u);
  }
  EXPECT_EQ(GridMinimize([](double) { return 0.0; }, 0.0, 10.0, 10), 0.0);
}

TEST(LineSearch, BatchGridFeedsGoldenAndGuardedMinimize) {
  // The batch evaluator serves only the grid; the refinement is the same.
  auto fn = [](double x) {
    return std::min((x - 2.0) * (x - 2.0) + 1.0, (x - 7.0) * (x - 7.0));
  };
  BatchScalar1dFn batch = [&](std::span<const double> xs,
                              std::span<double> fs) {
    for (size_t i = 0; i < xs.size(); ++i) fs[i] = fn(xs[i]);
  };
  EXPECT_EQ(GridThenGoldenMinimize(fn, 0.0, 10.0, 50, 1e-8),
            GridThenGoldenMinimize(fn, 0.0, 10.0, 50, 1e-8, batch));
  EXPECT_EQ(GuardedMinimize(fn, 0.0, 10.0, 1.0, 24, 1e-6),
            GuardedMinimize(fn, 0.0, 10.0, 1.0, 24, 1e-6, batch));
}

TEST(LineSearch, GridThenGoldenOnMultimodal) {
  // Two minima; the global one (at ~7.0) is found thanks to the grid scan.
  auto fn = [](double x) {
    return std::min((x - 2.0) * (x - 2.0) + 1.0, (x - 7.0) * (x - 7.0));
  };
  EXPECT_NEAR(GridThenGoldenMinimize(fn, 0.0, 10.0, 50), 7.0, 1e-4);
}

TEST(LineSearch, GuardedMinimizeNeverWorsens) {
  // Pathological oscillation: whatever the search returns, the guarded
  // version must not be worse than the incumbent.
  auto fn = [](double x) { return std::sin(40.0 * x) + 0.01 * x; };
  const double current = 0.275;  // some incumbent
  const double result = GuardedMinimize(fn, 0.0, 10.0, current);
  EXPECT_LE(fn(result), fn(current) + 1e-12);
}

TEST(LineSearch, GuardedMinimizeImprovesUnimodal) {
  auto fn = [](double x) { return (x - 4.0) * (x - 4.0); };
  const double result = GuardedMinimize(fn, 0.0, 10.0, 9.0);
  EXPECT_NEAR(result, 4.0, 1e-3);
}

TEST(LineSearch, GoldenSectionCollapsedBracketReturnsBestEndpoint) {
  // Bracket narrower than the tolerance at entry: nothing to section, the
  // better endpoint must come back (pre-fix, an interior probe of the
  // degenerate interval did).
  auto fn = [](double x) { return x; };  // decreasing preference for lo
  const double x = GoldenSectionMinimize(fn, 1.0, 1.0 + 1e-8, /*tol=*/1e-4);
  EXPECT_DOUBLE_EQ(x, 1.0);
  // Same with the endpoints reversed and the minimum at the upper end.
  auto neg = [](double v) { return -v; };
  const double y = GoldenSectionMinimize(neg, 2.0 + 1e-8, 2.0, /*tol=*/1e-4);
  EXPECT_DOUBLE_EQ(y, 2.0 + 1e-8);
}

TEST(LineSearch, GoldenSectionEqualEndpointCosts) {
  // Perfectly flat objective: any point in the bracket is optimal, but the
  // result must be a finite in-bracket point, never NaN.
  auto fn = [](double) { return 3.0; };
  const double x = GoldenSectionMinimize(fn, -1.0, 1.0, 1e-6);
  EXPECT_TRUE(std::isfinite(x));
  EXPECT_GE(x, -1.0);
  EXPECT_LE(x, 1.0);
}

TEST(LineSearch, GoldenSectionNanRegionsLoseToFinite) {
  // The objective is NaN on the right half; the section step must never
  // adopt a NaN probe as the incumbent. Minimum of the finite part is at 2.
  auto fn = [](double x) {
    if (x > 5.0) return std::numeric_limits<double>::quiet_NaN();
    return (x - 2.0) * (x - 2.0);
  };
  const double x = GoldenSectionMinimize(fn, 0.0, 10.0, 1e-8);
  EXPECT_TRUE(std::isfinite(fn(x))) << x;
  EXPECT_NEAR(x, 2.0, 1e-2);
}

TEST(LineSearch, GuardedMinimizeEscapesNanIncumbent) {
  // A NaN incumbent loses every `<` comparison; pre-fix GuardedMinimize
  // therefore returned it unchanged. It must take any finite candidate.
  auto fn = [](double x) {
    if (x > 8.0) return std::numeric_limits<double>::quiet_NaN();
    return (x - 3.0) * (x - 3.0);
  };
  const double result = GuardedMinimize(fn, 0.0, 8.0, /*current=*/9.0);
  EXPECT_TRUE(std::isfinite(fn(result)));
  EXPECT_NEAR(result, 3.0, 1e-2);
}

TEST(LineSearch, GoldenSectionPropertyNeverAboveEndpoints) {
  // Property sweep: for unimodal quadratics with random vertex and random
  // (possibly tiny) brackets, the returned point is inside the bracket and
  // codes no worse than both endpoints.
  Random rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const double vertex = rng.Uniform(-5.0, 5.0);
    const double lo = rng.Uniform(-6.0, 6.0);
    const double width = rng.Uniform(0.0, trial % 4 == 0 ? 1e-6 : 4.0);
    const double hi = lo + width;
    auto fn = [vertex](double x) { return (x - vertex) * (x - vertex); };
    const double x = GoldenSectionMinimize(fn, lo, hi, 1e-5);
    EXPECT_GE(x, lo - 1e-12);
    EXPECT_LE(x, hi + 1e-12);
    EXPECT_LE(fn(x), std::max(fn(lo), fn(hi)) + 1e-12);
  }
}

}  // namespace
}  // namespace dspot
