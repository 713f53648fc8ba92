// Unit and property tests for src/core/simulate: the SIV recurrence and
// the global/local simulation wrappers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/params.h"
#include "core/simulate.h"

namespace dspot {
namespace {

SivInputs BasicInputs() {
  SivInputs in;
  in.population = 100.0;
  in.beta = 0.5;
  in.delta = 0.4;
  in.gamma = 0.3;
  in.i0 = 1.0;
  return in;
}

TEST(SimulateSiv, PopulationConservedExactly) {
  SivInputs in = BasicInputs();
  in.epsilon.assign(200, 1.0);
  in.epsilon[50] = 10.0;
  SivTrajectory traj = SimulateSivFull(in, 200);
  for (size_t t = 0; t < 200; ++t) {
    const double total =
        traj.susceptible[t] + traj.infective[t] + traj.vigilant[t];
    ASSERT_NEAR(total, 100.0, 1e-9) << "at tick " << t;
  }
  // The trajectory is the fits' kernel run, resumed tick by tick.
  const Series infective = SimulateSiv(in, 200);
  EXPECT_EQ(std::memcmp(traj.infective.values().data(),
                        infective.values().data(), 200 * sizeof(double)),
            0);
}

TEST(SimulateSiv, CompartmentsNonNegative) {
  SivInputs in = BasicInputs();
  in.beta = 5.0;  // extreme contact rate
  in.epsilon.assign(100, 20.0);
  SivTrajectory traj = SimulateSivFull(in, 100);
  for (size_t t = 0; t < 100; ++t) {
    ASSERT_GE(traj.susceptible[t], -1e-12);
    ASSERT_GE(traj.infective[t], -1e-12);
    ASSERT_GE(traj.vigilant[t], -1e-12);
  }
}

TEST(SimulateSiv, ShockCreatesSpike) {
  SivInputs calm = BasicInputs();
  SivInputs shocked = BasicInputs();
  shocked.epsilon.assign(100, 1.0);
  for (size_t t = 50; t < 53; ++t) shocked.epsilon[t] = 8.0;
  Series a = SimulateSiv(calm, 100);
  Series b = SimulateSiv(shocked, 100);
  // Identical before the shock.
  for (size_t t = 0; t <= 50; ++t) {
    ASSERT_NEAR(a[t], b[t], 1e-12);
  }
  // Clearly higher shortly after.
  EXPECT_GT(b[53], a[53] * 1.5);
}

TEST(SimulateSiv, GrowthRaisesLevel) {
  SivInputs calm = BasicInputs();
  SivInputs grown = BasicInputs();
  grown.eta = BuildEta(0.5, 100, 300);
  Series a = SimulateSiv(calm, 300);
  Series b = SimulateSiv(grown, 300);
  for (size_t t = 0; t <= 100; ++t) {
    ASSERT_NEAR(a[t], b[t], 1e-12);
  }
  EXPECT_GT(b[299], a[299] * 1.1);
}

TEST(SimulateSiv, EmptyEpsilonEtaDefaults) {
  SivInputs in = BasicInputs();
  Series a = SimulateSiv(in, 50);
  in.epsilon.assign(50, 1.0);
  in.eta.assign(50, 0.0);
  Series b = SimulateSiv(in, 50);
  for (size_t t = 0; t < 50; ++t) {
    EXPECT_DOUBLE_EQ(a[t], b[t]);
  }
}

TEST(SimulateSiv, I0ClampedToPopulation) {
  SivInputs in = BasicInputs();
  in.i0 = 1e9;
  Series i = SimulateSiv(in, 10);
  EXPECT_NEAR(i[0], 100.0, 1e-9);
}

TEST(BuildEta, StepFunction) {
  auto eta = BuildEta(0.3, 5, 10);
  EXPECT_DOUBLE_EQ(eta[4], 0.0);
  EXPECT_DOUBLE_EQ(eta[5], 0.3);
  EXPECT_DOUBLE_EQ(eta[9], 0.3);
}

TEST(BuildEta, DisabledCases) {
  // Disabled growth yields an EMPTY schedule (not n zeros): the simulator's
  // `t < eta.size()` guard treats the missing ticks as eta = 0.
  EXPECT_TRUE(BuildEta(0.3, kNpos, 10).empty());
  EXPECT_TRUE(BuildEta(0.0, 5, 10).empty());
}

ModelParamSet TwoKeywordParams() {
  ModelParamSet params;
  params.num_keywords = 2;
  params.num_locations = 2;
  params.num_ticks = 100;
  KeywordGlobalParams g;
  g.population = 100.0;
  g.beta = 0.5;
  g.delta = 0.4;
  g.gamma = 0.3;
  g.i0 = 1.0;
  params.global = {g, g};
  Shock s;
  s.keyword = 1;
  s.start = 40;
  s.width = 2;
  s.base_strength = 6.0;
  s.global_strengths = {6.0};
  params.shocks.push_back(s);
  return params;
}

TEST(SimulateGlobal, ShockAppliesOnlyToItsKeyword) {
  ModelParamSet params = TwoKeywordParams();
  Series kw0 = SimulateGlobal(params, 0, 100);
  Series kw1 = SimulateGlobal(params, 1, 100);
  for (size_t t = 0; t <= 40; ++t) {
    ASSERT_NEAR(kw0[t], kw1[t], 1e-12);
  }
  EXPECT_GT(kw1[43], kw0[43] * 1.2);
}

TEST(SimulateLocal, EvenShareWithoutLocalFit) {
  ModelParamSet params = TwoKeywordParams();
  Series local = SimulateLocal(params, 0, 0, 100);
  Series global = SimulateGlobal(params, 0, 100);
  // Each of the 2 locations carries N/2; the dynamics are scale-covariant
  // (per-capita rates), so local = global / 2.
  for (size_t t = 0; t < 100; ++t) {
    ASSERT_NEAR(local[t], global[t] / 2.0, 1e-9);
  }
}

TEST(SimulateLocal, UsesLocalMatricesWhenPresent) {
  ModelParamSet params = TwoKeywordParams();
  params.base_local = Matrix(2, 2);
  params.base_local(0, 0) = 80.0;
  params.base_local(0, 1) = 20.0;
  params.base_local(1, 0) = 50.0;
  params.base_local(1, 1) = 50.0;
  params.growth_local = Matrix(2, 2);
  Series big = SimulateLocal(params, 0, 0, 100);
  Series small = SimulateLocal(params, 0, 1, 100);
  // Scale covariance: ratio of levels tracks the population ratio.
  EXPECT_NEAR(big[50] / small[50], 4.0, 1e-6);
}

/// Property sweep: conservation holds across the parameter cube, with
/// shocks and growth active.
class SivConservationProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(SivConservationProperty, HoldsEverywhere) {
  const auto [beta, delta, gamma] = GetParam();
  SivInputs in;
  in.population = 123.0;
  in.beta = beta;
  in.delta = delta;
  in.gamma = gamma;
  in.i0 = 2.0;
  in.epsilon.assign(150, 1.0);
  for (size_t t = 20; t < 150; t += 30) in.epsilon[t] = 15.0;
  in.eta = BuildEta(0.4, 75, 150);
  SivTrajectory traj = SimulateSivFull(in, 150);
  for (size_t t = 0; t < 150; ++t) {
    const double total =
        traj.susceptible[t] + traj.infective[t] + traj.vigilant[t];
    ASSERT_NEAR(total, 123.0, 1e-8);
    ASSERT_GE(traj.susceptible[t], -1e-12);
    ASSERT_GE(traj.infective[t], -1e-12);
    ASSERT_GE(traj.vigilant[t], -1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamCube, SivConservationProperty,
    ::testing::Combine(::testing::Values(0.05, 0.5, 2.0, 5.0),
                       ::testing::Values(0.1, 0.5, 1.0),
                       ::testing::Values(0.0, 0.5, 1.0)));

}  // namespace
}  // namespace dspot
