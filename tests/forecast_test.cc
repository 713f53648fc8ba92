// Tests for forecasting (Section 6): cyclic events recur in the future,
// errors are reported for bad inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/dspot.h"
#include "core/forecast.h"
#include "core/simulate.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "serve/model_registry.h"
#include "serve/serve_engine.h"
#include "stream/stream_engine.h"
#include "timeseries/metrics.h"

namespace dspot {
namespace {

ModelParamSet HandBuiltParams() {
  ModelParamSet params;
  params.num_keywords = 1;
  params.num_locations = 1;
  params.num_ticks = 200;
  KeywordGlobalParams g;
  g.population = 100.0;
  g.beta = 0.5;
  g.delta = 0.45;
  g.gamma = 0.5;
  g.i0 = 1.0;
  params.global = {g};
  Shock s;
  s.keyword = 0;
  s.start = 20;
  s.period = 50;
  s.width = 2;
  s.base_strength = 8.0;
  s.global_strengths.assign(s.NumOccurrences(200), 8.0);
  params.shocks.push_back(s);
  return params;
}

TEST(Forecast, LengthAndContinuity) {
  ModelParamSet params = HandBuiltParams();
  auto fc = ForecastGlobal(params, 0, 60);
  ASSERT_TRUE(fc.ok());
  EXPECT_EQ(fc->size(), 60u);
  // The forecast is the continuation of the full simulation.
  Series full = SimulateGlobal(params, 0, 260);
  for (size_t h = 0; h < 60; ++h) {
    ASSERT_NEAR((*fc)[h], full[200 + h], 1e-12);
  }
}

TEST(Forecast, CyclicShockRecursInFuture) {
  ModelParamSet params = HandBuiltParams();
  // Occurrences at 20, 70, 120, 170, 220, 270; the last two are in the
  // forecast range (200..299).
  auto fc = ForecastGlobal(params, 0, 100);
  ASSERT_TRUE(fc.ok());
  // A spike should appear shortly after forecast offsets 20 and 70.
  double base = (*fc)[10];
  EXPECT_GT((*fc)[23], base * 1.5);
  EXPECT_GT((*fc)[73], base * 1.5);
}

TEST(Forecast, OneShotShockDoesNotRecur) {
  ModelParamSet params = HandBuiltParams();
  params.shocks[0].period = Shock::kNonCyclic;
  params.shocks[0].global_strengths = {8.0};
  auto fc = ForecastGlobal(params, 0, 100);
  ASSERT_TRUE(fc.ok());
  // No spikes: the forecast decays to the endemic level.
  double lo = 1e18;
  double hi = -1e18;
  for (size_t h = 20; h < 100; ++h) {
    lo = std::min(lo, (*fc)[h]);
    hi = std::max(hi, (*fc)[h]);
  }
  EXPECT_LT(hi - lo, 2.0);
}

TEST(Forecast, FitAndForecastConcatenates) {
  ModelParamSet params = HandBuiltParams();
  auto full = FitAndForecastGlobal(params, 0, 40);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 240u);
}

TEST(Forecast, ErrorsOnBadIndices) {
  ModelParamSet params = HandBuiltParams();
  EXPECT_EQ(ForecastGlobal(params, 5, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ForecastLocal(params, 0, 5, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(FitAndForecastGlobal(params, 9, 10).status().code(),
            StatusCode::kOutOfRange);
}

TEST(Forecast, LocalRequiresLocalFit) {
  ModelParamSet params = HandBuiltParams();
  EXPECT_EQ(ForecastLocal(params, 0, 0, 10).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Forecast, ZeroHorizonReturnsEmptyOk) {
  ModelParamSet params = HandBuiltParams();
  auto fc = ForecastGlobal(params, 0, 0);
  ASSERT_TRUE(fc.ok()) << fc.status().ToString();
  EXPECT_EQ(fc->size(), 0u);
  params.num_locations = 1;
  params.base_local = Matrix(1, 1, 50.0);
  auto lc = ForecastLocal(params, 0, 0, 0);
  ASSERT_TRUE(lc.ok()) << lc.status().ToString();
  EXPECT_EQ(lc->size(), 0u);
}

TEST(Forecast, TrainingShorterThanFittedPeriodIsOk) {
  // A shock whose period exceeds the training range has occurrences in
  // the forecast window with no fitted strength; they must fall back to
  // base_strength rather than read past global_strengths.
  ModelParamSet params = HandBuiltParams();
  params.num_ticks = 30;  // shorter than the shock period (50)
  params.shocks[0].global_strengths = {8.0};  // only the first occurrence fit
  auto fc = ForecastGlobal(params, 0, 100);
  ASSERT_TRUE(fc.ok()) << fc.status().ToString();
  ASSERT_EQ(fc->size(), 100u);
  for (size_t h = 0; h < fc->size(); ++h) {
    EXPECT_TRUE(std::isfinite((*fc)[h]));
  }
  // Occurrence at tick 70 (forecast offset 40) still fires.
  EXPECT_GT((*fc)[43], (*fc)[30] * 1.5);
}

TEST(Forecast, LocalRejectsMisshapenLocalMatrices) {
  // Regression: base_local(keyword, location) on a matrix whose shape
  // disagrees with num_locations was an out-of-bounds read in Release
  // builds (assert-only protection). Now a FailedPrecondition.
  ModelParamSet params = HandBuiltParams();
  params.num_locations = 3;
  params.base_local = Matrix(1, 2, 50.0);  // 2 cols, 3 declared locations
  EXPECT_EQ(ForecastLocal(params, 0, 2, 10).status().code(),
            StatusCode::kFailedPrecondition);
  params.base_local = Matrix(1, 3, 50.0);
  params.growth_local = Matrix(2, 3);  // wrong row count
  EXPECT_EQ(ForecastLocal(params, 0, 2, 10).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Forecast, LocalWorksAfterLocalMatrices) {
  ModelParamSet params = HandBuiltParams();
  params.num_locations = 2;
  params.base_local = Matrix(1, 2, 50.0);
  params.growth_local = Matrix(1, 2);
  params.shocks[0].local_strengths =
      Matrix(params.shocks[0].global_strengths.size(), 2, 8.0);
  auto fc = ForecastLocal(params, 0, 1, 30);
  ASSERT_TRUE(fc.ok()) << fc.status().ToString();
  EXPECT_EQ(fc->size(), 30u);
}

TEST(Forecast, EndToEndGrammyBeatsNaive) {
  // Train on 5 years, forecast 1: the model's forecast should beat the
  // "repeat the training mean" baseline thanks to the recurring event.
  GeneratorConfig config = GoogleTrendsConfig(21);
  config.n_ticks = 312;
  config.num_locations = 6;
  config.num_outlier_locations = 0;
  auto full = GenerateGlobalSequence(GrammyScenario(), config);
  ASSERT_TRUE(full.ok());
  Series train = full->Slice(0, 260);
  Series test = full->Slice(260, 312);
  auto fit = FitDspotSingle(train);
  ASSERT_TRUE(fit.ok());
  auto fc = ForecastGlobal(fit->params, 0, test.size());
  ASSERT_TRUE(fc.ok());
  Series naive(test.size());
  for (size_t t = 0; t < naive.size(); ++t) naive[t] = train.MeanValue();
  EXPECT_LT(Rmse(test, *fc), Rmse(test, naive));
}

// One series, one model, three paths: the batch pipeline, a served fit
// and forecast, and a stream that ingests the series as ticks 0..n-1 and
// cold-fits it at one flush. Each fits the series as keyword 0 of 1 with
// default options and runs the model past its fitted range, so the three
// forecasts must be the same bits.
TEST(Forecast, BatchStreamAndServedForecastsAgreeBitForBit) {
  GeneratorConfig config = GoogleTrendsConfig(7);
  config.n_ticks = 120;
  config.num_locations = 4;
  config.num_outlier_locations = 0;
  auto generated = GenerateGlobalSequence(GrammyScenario(), config);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const std::vector<double>& values = generated->values();
  const size_t n = values.size();
  const size_t horizon = 26;

  auto fit = FitDspotSingle(*generated);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  auto batch = ForecastGlobal(fit->params, 0, horizon);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), horizon);

  ModelRegistry registry{RegistryOptions()};
  ServeEngine engine(&registry, ServeOptions());
  ServeRequest fit_request;
  fit_request.id = 1;
  fit_request.op = ServeOp::kFit;
  fit_request.keyword = "grammy";
  fit_request.values = values;
  ASSERT_TRUE(engine.Call(fit_request).status.ok());
  ServeRequest forecast_request;
  forecast_request.id = 2;
  forecast_request.op = ServeOp::kForecast;
  forecast_request.keyword = "grammy";
  forecast_request.horizon = horizon;
  const ServeReply served = engine.Call(forecast_request);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  ASSERT_EQ(served.values.size(), horizon);

  StreamOptions stream_options;
  stream_options.forecast_horizon = horizon;
  ASSERT_LE(stream_options.min_fit_ticks, n);
  ASSERT_GE(stream_options.ring_capacity, n);
  StreamEngine stream(stream_options);
  for (size_t t = 0; t < n; ++t) {
    ASSERT_TRUE(
        stream.Append("grammy", "US", static_cast<int64_t>(t), values[t])
            .ok());
  }
  auto report = stream.Flush();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->cold_fits, 1u);
  std::vector<double> streamed(horizon);
  int64_t start_tick = -1;
  ASSERT_TRUE(
      stream.ForecastInto(stream.KeywordIndex("grammy"), streamed,
                          &start_tick)
          .ok());
  EXPECT_EQ(start_tick, static_cast<int64_t>(n));

  const size_t bytes = horizon * sizeof(double);
  EXPECT_EQ(std::memcmp(batch->values().data(), served.values.data(), bytes),
            0);
  EXPECT_EQ(std::memcmp(batch->values().data(), streamed.data(), bytes), 0);
}

}  // namespace
}  // namespace dspot
