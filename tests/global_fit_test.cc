// Tests for GLOBALFIT (Algorithm 2): event recovery, growth detection,
// MDL behaviour and the ablation switches.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/global_fit.h"
#include "core/simulate.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "guard/fault_injector.h"
#include "timeseries/metrics.h"

namespace dspot {
namespace {

GeneratorConfig SmallConfig(uint64_t seed = 42) {
  GeneratorConfig config = GoogleTrendsConfig(seed);
  config.n_ticks = 312;  // 6 years, keeps the tests quick
  config.num_locations = 6;
  config.num_outlier_locations = 0;
  return config;
}

Series Generate(const KeywordScenario& scenario, uint64_t seed = 42) {
  auto s = GenerateGlobalSequence(scenario, SmallConfig(seed));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(GlobalFit, RecoversAnnualCycle) {
  Series data = Generate(GrammyScenario());
  auto fit = FitGlobalSequence(data, 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  // At least one detected cyclic shock with a ~52-tick period.
  bool found = false;
  for (const Shock& s : fit->shocks) {
    if (s.IsCyclic() && s.period >= 50 && s.period <= 54) found = true;
  }
  EXPECT_TRUE(found);
  const double range = data.MaxValue() - data.MinValue();
  EXPECT_LT(fit->rmse, 0.12 * range);
}

TEST(GlobalFit, RecoversOneShotEvent) {
  KeywordScenario sc = EbolaScenario();
  sc.shocks[0].start = 200;  // keep inside the shortened horizon
  Series data = Generate(sc);
  auto fit = FitGlobalSequence(data, 0, 1);
  ASSERT_TRUE(fit.ok());
  ASSERT_GE(fit->shocks.size(), 1u);
  // The dominant shock sits near tick 200.
  bool near = false;
  for (const Shock& s : fit->shocks) {
    if (s.start >= 195 && s.start <= 205) near = true;
  }
  EXPECT_TRUE(near);
}

TEST(GlobalFit, DetectsGrowthEffect) {
  KeywordScenario sc = AmazonScenario();
  sc.growth_start = 150;
  Series data = Generate(sc);
  auto fit = FitGlobalSequence(data, 0, 1);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->params.has_growth());
  // Onset within a coarse window of the truth (the grid is coarse and the
  // base dynamics can absorb part of the ramp).
  EXPECT_NEAR(static_cast<double>(fit->params.growth_start), 150.0, 80.0);
}

TEST(GlobalFit, ShocksDisabledByOption) {
  Series data = Generate(GrammyScenario());
  GlobalFitOptions options;
  options.allow_shocks = false;
  auto fit = FitGlobalSequence(data, 0, 1, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->shocks.empty());
}

TEST(GlobalFit, GrowthDisabledByOption) {
  KeywordScenario sc = AmazonScenario();
  sc.growth_start = 150;
  Series data = Generate(sc);
  GlobalFitOptions options;
  options.allow_growth = false;
  auto fit = FitGlobalSequence(data, 0, 1, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_FALSE(fit->params.has_growth());
}

TEST(GlobalFit, ShocksImproveFitVsBaseOnly) {
  Series data = Generate(GrammyScenario());
  GlobalFitOptions base_only;
  base_only.allow_shocks = false;
  base_only.allow_growth = false;
  auto plain = FitGlobalSequence(data, 0, 1, base_only);
  auto full = FitGlobalSequence(data, 0, 1);
  ASSERT_TRUE(plain.ok() && full.ok());
  EXPECT_LT(full->rmse, plain->rmse * 0.8);
  EXPECT_LT(full->cost_bits, plain->cost_bits);
}

TEST(GlobalFit, EstimateMatchesSimulatedParams) {
  Series data = Generate(GrammyScenario());
  auto fit = FitGlobalSequence(data, 0, 1);
  ASSERT_TRUE(fit.ok());
  // The returned estimate is exactly the simulation of the returned
  // parameters.
  ModelParamSet params;
  params.num_keywords = 1;
  params.num_locations = 1;
  params.num_ticks = data.size();
  params.global = {fit->params};
  params.shocks = fit->shocks;
  Series sim = SimulateGlobal(params, 0, data.size());
  for (size_t t = 0; t < data.size(); ++t) {
    ASSERT_NEAR(sim[t], fit->estimate[t], 1e-9);
  }
}

TEST(GlobalFit, ParametersWithinSaneRanges) {
  Series data = Generate(GrammyScenario());
  auto fit = FitGlobalSequence(data, 0, 1);
  ASSERT_TRUE(fit.ok());
  const double peak = data.MaxValue();
  EXPECT_GE(fit->params.population, peak);
  EXPECT_GT(fit->params.beta, 0.0);
  EXPECT_LE(fit->params.beta, 5.0);
  EXPECT_GT(fit->params.delta, 0.0);
  EXPECT_LE(fit->params.delta, 1.0);
  EXPECT_GT(fit->params.gamma, 0.0);
  EXPECT_LE(fit->params.gamma, 1.0);
}

TEST(GlobalFit, RejectsTooShortSeries) {
  EXPECT_EQ(FitGlobalSequence(Series(8), 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GlobalFit, HandlesMissingValues) {
  GeneratorConfig config = SmallConfig();
  config.missing_rate = 0.1;
  auto data = GenerateGlobalSequence(GrammyScenario(), config);
  ASSERT_TRUE(data.ok());
  auto fit = FitGlobalSequence(*data, 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const double range = data->MaxValue() - data->MinValue();
  EXPECT_LT(fit->rmse, 0.2 * range);
}

/// A Grammy-style annual cycle plus two one-shot events: several shock
/// searches, each with several candidates to fan out.
Series SeveralShocks() {
  KeywordScenario sc = GrammyScenario();
  sc.shocks.push_back({.period = 0, .start = 120, .width = 3, .strength = 14.0});
  sc.shocks.push_back({.period = 0, .start = 230, .width = 2, .strength = 9.0});
  return Generate(sc, 7);
}

void ExpectSameFit(const GlobalSequenceFit& a, const GlobalSequenceFit& b,
                   size_t threads) {
  EXPECT_EQ(a.params.population, b.params.population) << threads;
  EXPECT_EQ(a.params.beta, b.params.beta) << threads;
  EXPECT_EQ(a.params.delta, b.params.delta) << threads;
  EXPECT_EQ(a.params.gamma, b.params.gamma) << threads;
  EXPECT_EQ(a.params.i0, b.params.i0) << threads;
  EXPECT_EQ(a.params.growth_rate, b.params.growth_rate) << threads;
  EXPECT_EQ(a.params.growth_start, b.params.growth_start) << threads;
  ASSERT_EQ(a.shocks.size(), b.shocks.size()) << threads;
  for (size_t k = 0; k < a.shocks.size(); ++k) {
    EXPECT_EQ(a.shocks[k].ToString(), b.shocks[k].ToString()) << threads;
    EXPECT_EQ(a.shocks[k].base_strength, b.shocks[k].base_strength);
    EXPECT_EQ(a.shocks[k].global_strengths, b.shocks[k].global_strengths);
  }
  EXPECT_EQ(a.cost_bits, b.cost_bits) << threads;
  EXPECT_EQ(a.rmse, b.rmse) << threads;
  EXPECT_EQ(a.estimate.values(), b.estimate.values()) << threads;
  EXPECT_EQ(a.health.restarts, b.health.restarts) << threads;
  EXPECT_EQ(a.health.iterations, b.health.iterations) << threads;
}

// One keyword, so only the shock-candidate fan-out is parallel: a fit and
// a warm refit are bit-identical at every thread count.
TEST(GlobalFit, ShockCandidatesFitBitIdenticallyAtAnyThreadCount) {
  const Series data = SeveralShocks();
  const Series prefix(std::vector<double>(data.values().begin(),
                                          data.values().begin() + 260));
  GlobalFitOptions options;
  options.num_threads = 1;
  auto serial = FitGlobalSequence(data, 0, 1, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_GE(serial->shocks.size(), 2u);
  auto previous = FitGlobalSequence(prefix, 0, 1, options);
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  auto serial_refit = RefitGlobalSequence(data, 0, 1, *previous, options);
  ASSERT_TRUE(serial_refit.ok()) << serial_refit.status().ToString();
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    options.num_threads = threads;
    auto fit = FitGlobalSequence(data, 0, 1, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ExpectSameFit(*serial, *fit, threads);
    auto refit = RefitGlobalSequence(data, 0, 1, *previous, options);
    ASSERT_TRUE(refit.ok()) << refit.status().ToString();
    ExpectSameFit(*serial_refit, *refit, threads);
  }
}

// A NaN injected into one LM cost evaluation inside a shock candidate's
// mini-EM costs that solve a restart; the candidate counts it in its own
// health, and the verdict adds it to the fit's.
TEST(GlobalFit, RestartsInsideShockCandidatesReachTheFitHealth) {
  const Series data = SeveralShocks();
  GlobalFitOptions options;
  options.num_threads = 1;
  FaultInjector::Instance().ArmExact(FaultSite::kNanAtResidual, 3000);
  auto fit = FitGlobalSequence(data, 0, 1, options);
  FaultInjector::Instance().Disarm();
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->health.restarts, 1);
}

TEST(GlobalFit, CancellationDuringAFourThreadFitReturnsCancelled) {
  const Series data = SeveralShocks();
  GlobalFitOptions options;
  options.num_threads = 4;
  options.guard.cancel = CancellationToken::Cancellable();
  std::thread canceller([token = options.guard.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.Cancel();
  });
  auto fit = FitGlobalSequence(data, 0, 1, options);
  canceller.join();
  EXPECT_EQ(fit.status().code(), StatusCode::kCancelled)
      << fit.status().ToString();
}

TEST(GlobalFitTensor, FitsEveryKeyword) {
  GeneratorConfig config = SmallConfig();
  auto generated =
      GenerateTensor({GrammyScenario(), EbolaScenario()}, config);
  ASSERT_TRUE(generated.ok());
  auto params = GlobalFit(generated->tensor);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_EQ(params->global.size(), 2u);
  EXPECT_EQ(params->num_keywords, 2u);
  // Shocks are tagged with their keyword.
  for (const Shock& s : params->shocks) {
    EXPECT_LT(s.keyword, 2u);
  }
}

TEST(GlobalFitTensor, RejectsEmptyTensor) {
  EXPECT_EQ(GlobalFit(ActivityTensor()).status().code(),
            StatusCode::kInvalidArgument);
}

/// Property sweep: the annual-event scenario is recovered across seeds —
/// the detector is not tuned to one noise draw.
class GlobalFitSeedProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GlobalFitSeedProperty, AnnualCycleAcrossSeeds) {
  Series data = Generate(GrammyScenario(), GetParam());
  auto fit = FitGlobalSequence(data, 0, 1);
  ASSERT_TRUE(fit.ok());
  bool found = false;
  for (const Shock& s : fit->shocks) {
    if (s.IsCyclic() && s.period >= 50 && s.period <= 54) found = true;
  }
  EXPECT_TRUE(found) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalFitSeedProperty,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace dspot
