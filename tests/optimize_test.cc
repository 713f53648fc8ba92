// Unit and property tests for src/optimize: Levenberg-Marquardt,
// Nelder-Mead and the 1-d searches.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/random.h"
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
