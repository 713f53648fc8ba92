// Unit tests for src/timeseries: Series, metrics, stats, smoothing, peaks.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "timeseries/metrics.h"
#include "timeseries/peaks.h"
#include "timeseries/series.h"
#include "timeseries/smoothing.h"
#include "timeseries/stats.h"

namespace dspot {
namespace {

TEST(Series, BasicsAndMissing) {
  Series s(5);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.observed_count(), 5u);
  s[2] = kMissingValue;
  EXPECT_EQ(s.observed_count(), 4u);
  EXPECT_FALSE(s.IsObserved(2));
  EXPECT_TRUE(s.IsObserved(0));
}

TEST(Series, SliceClampsEnd) {
  Series s(std::vector<double>{0, 1, 2, 3, 4});
  Series mid = s.Slice(1, 3);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_DOUBLE_EQ(mid[0], 1.0);
  EXPECT_DOUBLE_EQ(mid[1], 2.0);
  EXPECT_EQ(s.Slice(3, 100).size(), 2u);
  EXPECT_EQ(s.Slice(4, 2).size(), 0u);
}

TEST(Series, AddTogetherPropagatesMissing) {
  Series a(std::vector<double>{1, kMissingValue, 3});
  Series b(std::vector<double>{10, 20, 30});
  Series sum = Series::AddTogether(a, b);
  EXPECT_DOUBLE_EQ(sum[0], 11.0);
  EXPECT_TRUE(IsMissing(sum[1]));
  EXPECT_DOUBLE_EQ(sum[2], 33.0);
}

TEST(Series, InterpolationFillsGaps) {
  Series s(std::vector<double>{kMissingValue, 2.0, kMissingValue,
                               kMissingValue, 8.0, kMissingValue});
  Series filled = s.Interpolated();
  EXPECT_DOUBLE_EQ(filled[0], 2.0);  // edge takes nearest
  EXPECT_DOUBLE_EQ(filled[1], 2.0);
  EXPECT_DOUBLE_EQ(filled[2], 4.0);  // linear between 2 and 8
  EXPECT_DOUBLE_EQ(filled[3], 6.0);
  EXPECT_DOUBLE_EQ(filled[4], 8.0);
  EXPECT_DOUBLE_EQ(filled[5], 8.0);
}

TEST(Series, InterpolationAllMissingBecomesZero) {
  Series s(std::vector<double>{kMissingValue, kMissingValue});
  Series filled = s.Interpolated();
  EXPECT_DOUBLE_EQ(filled[0], 0.0);
  EXPECT_DOUBLE_EQ(filled[1], 0.0);
}

TEST(Series, RescaledToMax) {
  Series s(std::vector<double>{1, 2, 4});
  Series r = s.RescaledToMax(100.0);
  EXPECT_DOUBLE_EQ(r[2], 100.0);
  EXPECT_DOUBLE_EQ(r[0], 25.0);
  // Non-positive max: no-op.
  Series z(std::vector<double>{0, 0});
  EXPECT_DOUBLE_EQ(z.RescaledToMax(10.0)[0], 0.0);
}

TEST(Series, ToStringTruncates) {
  Series s(20);
  const std::string str = s.ToString(4);
  EXPECT_NE(str.find("(20 total)"), std::string::npos);
}

TEST(Metrics, RmseKnownValue) {
  Series a(std::vector<double>{0, 0, 0, 0});
  Series e(std::vector<double>{1, -1, 1, -1});
  EXPECT_DOUBLE_EQ(Rmse(a, e), 1.0);
}

TEST(Metrics, RmseSkipsMissing) {
  Series a(std::vector<double>{0, kMissingValue, 0});
  Series e(std::vector<double>{3, 100, 4});
  EXPECT_DOUBLE_EQ(Rmse(a, e), 3.5355339059327378);  // sqrt((9+16)/2)
}

TEST(Metrics, RmseIdenticalIsZero) {
  Series a(std::vector<double>{1, 2, 3});
  EXPECT_DOUBLE_EQ(Rmse(a, a), 0.0);
}

TEST(Metrics, MaeAndNormalizedRmse) {
  Series a(std::vector<double>{0, 10});
  Series e(std::vector<double>{2, 8});
  EXPECT_DOUBLE_EQ(Mae(a, e), 2.0);
  EXPECT_DOUBLE_EQ(NormalizedRmse(a, e), 0.2);
}

TEST(Metrics, RSquaredPerfectAndPoor) {
  Series a(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(RSquared(a, a), 1.0);
  Series bad(std::vector<double>{4, 3, 2, 1});
  EXPECT_LT(RSquared(a, bad), 0.0);
}

TEST(Stats, AutocorrelationOfPeriodicSignal) {
  const size_t period = 10;
  Series s(100);
  for (size_t t = 0; t < s.size(); ++t) {
    s[t] = std::sin(2.0 * M_PI * static_cast<double>(t) / period);
  }
  auto acf = Autocorrelation(s, 30);
  EXPECT_NEAR(acf[0], 1.0, 1e-9);
  EXPECT_GT(acf[period], 0.8);
  EXPECT_LT(acf[period / 2], -0.5);
}

TEST(Stats, AutocorrelationConstantSeriesIsZero) {
  Series s(std::vector<double>(50, 3.0));
  auto acf = Autocorrelation(s, 10);
  for (double v : acf) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Stats, PeriodogramPeaksAtTruePeriod) {
  const size_t period = 16;
  Series s(128);
  for (size_t t = 0; t < s.size(); ++t) {
    s[t] = std::cos(2.0 * M_PI * static_cast<double>(t) / period);
  }
  auto power = PeriodogramByPeriod(s, 40);
  size_t best = 2;
  for (size_t p = 2; p < power.size(); ++p) {
    if (power[p] > power[best]) best = p;
  }
  EXPECT_EQ(best, period);
}

TEST(Stats, CandidatePeriodsFindsSpikeTrainPeriod) {
  Series s(260);
  for (size_t t = 6; t < s.size(); t += 52) {
    s[t] = 100.0;
    if (t + 1 < s.size()) s[t + 1] = 60.0;
  }
  auto candidates = CandidatePeriods(s, 130);
  ASSERT_FALSE(candidates.empty());
  EXPECT_NEAR(static_cast<double>(candidates[0]), 52.0, 1.0);
}

TEST(Stats, CandidatePeriodsEmptyForNoise) {
  Random rng(5);
  Series s(64);
  for (size_t t = 0; t < s.size(); ++t) s[t] = rng.Gaussian();
  // White noise may admit weak spurious peaks; require none above 0.5.
  auto candidates = CandidatePeriods(s, 32, /*min_acf=*/0.5);
  EXPECT_TRUE(candidates.empty());
}

TEST(Stats, AutocorrelationInfiniteSampleIsZero) {
  // An inf sample survives interpolation (which only patches NaN) and used
  // to make the mean, the denominator, and hence every ACF entry NaN.
  Series s(50);
  for (size_t t = 0; t < s.size(); ++t) s[t] = static_cast<double>(t % 7);
  s[20] = std::numeric_limits<double>::infinity();
  auto acf = Autocorrelation(s, 10);
  for (double v : acf) {
    EXPECT_TRUE(std::isfinite(v)) << v;
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Stats, PeriodogramInfiniteSampleIsZero) {
  Series s(64);
  for (size_t t = 0; t < s.size(); ++t) s[t] = static_cast<double>(t % 5);
  s[10] = -std::numeric_limits<double>::infinity();
  auto power = PeriodogramByPeriod(s, 20);
  for (double v : power) {
    EXPECT_TRUE(std::isfinite(v)) << v;
  }
}

TEST(Stats, CandidatePeriodsDegenerateSeries) {
  // Constant series: no structure, no candidates, no NaN peaks.
  EXPECT_TRUE(CandidatePeriods(Series(std::vector<double>(40, 5.0)), 20)
                  .empty());
  // All-missing series interpolates to zeros: same.
  Series missing(30);
  for (size_t t = 0; t < missing.size(); ++t) missing[t] = kMissingValue;
  EXPECT_TRUE(CandidatePeriods(missing, 15).empty());
  // Shorter than two periods: max_period clamps below 2 and returns empty
  // rather than out-of-range lags.
  Series three(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(CandidatePeriods(three, 50).empty());
  // Inf contamination: the ACF is all zero, so no candidate can surface.
  Series inf_series(40);
  for (size_t t = 0; t < inf_series.size(); ++t) {
    inf_series[t] = static_cast<double>(t % 8);
  }
  inf_series[5] = std::numeric_limits<double>::infinity();
  for (size_t p : CandidatePeriods(inf_series, 20)) {
    EXPECT_LE(p, 20u);
  }
}

TEST(Stats, ZScoresInfiniteSampleDegradesToZeros) {
  Series s(std::vector<double>{1.0, 2.0,
                               std::numeric_limits<double>::infinity()});
  auto z = ZScores(s);
  for (double v : z) {
    EXPECT_TRUE(std::isfinite(v)) << v;
  }
}

TEST(Stats, ZScoresStandardize) {
  Series s(std::vector<double>{0, 10});
  auto z = ZScores(s);
  EXPECT_NEAR(z[0], -1.0, 1e-9);
  EXPECT_NEAR(z[1], 1.0, 1e-9);
}

TEST(Smoothing, MovingAverageFlattens) {
  Series s(std::vector<double>{0, 10, 0, 10, 0});
  Series ma = MovingAverage(s, 1);
  EXPECT_NEAR(ma[2], 20.0 / 3.0, 1e-9);
  EXPECT_NEAR(ma[0], 5.0, 1e-9);  // window [0, 1]
}

TEST(Smoothing, EwmaConverges) {
  Series s(std::vector<double>(50, 10.0));
  s[0] = 0.0;
  Series e = Ewma(s, 0.5);
  EXPECT_NEAR(e[49], 10.0, 1e-9);
}

TEST(Smoothing, DifferenceBasics) {
  Series s(std::vector<double>{1, 4, 9});
  Series d = Difference(s);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(Peaks, FindsSingleBurst) {
  Series residual(100);
  for (size_t t = 40; t < 44; ++t) residual[t] = 50.0;
  auto bursts = FindBursts(residual);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].start, 40u);
  EXPECT_GE(bursts[0].width, 3u);
  EXPECT_DOUBLE_EQ(bursts[0].peak_value, 50.0);
}

TEST(Peaks, OrdersByPeakHeight) {
  Series residual(100);
  residual[20] = 30.0;
  residual[60] = 80.0;
  auto bursts = FindBursts(residual);
  ASSERT_GE(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].start, 60u);
  EXPECT_EQ(bursts[1].start, 20u);
}

TEST(Peaks, NoBurstsInFlatSeries) {
  Series residual(std::vector<double>(50, 1.0));
  EXPECT_TRUE(FindBursts(residual).empty());
}

TEST(Peaks, NegativeResidualsIgnored) {
  Series residual(100);
  for (size_t t = 0; t < 100; ++t) residual[t] = -10.0;
  residual[50] = 5.0;
  auto bursts = FindBursts(residual);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].start, 50u);
}

TEST(Peaks, HasBurstNearTolerance) {
  std::vector<Burst> bursts = {{.start = 40, .width = 3}};
  EXPECT_TRUE(HasBurstNear(bursts, 41, 0));
  EXPECT_TRUE(HasBurstNear(bursts, 38, 2));
  EXPECT_FALSE(HasBurstNear(bursts, 50, 2));
}

TEST(Peaks, RespectsMaxBursts) {
  // More single-tick bursts than the cap, each taller than the last.
  constexpr size_t kPlanted = kMaxBursts + 8;
  Series residual(10 * kPlanted);
  for (size_t k = 0; k < kPlanted; ++k) {
    residual[10 * k + 5] = 100.0 + static_cast<double>(k);
  }
  const std::vector<Burst> bursts = FindBursts(residual);
  ASSERT_EQ(bursts.size(), kMaxBursts);
  // The cap keeps the strongest: the eight shortest are dropped.
  EXPECT_EQ(bursts.back().start, 10u * 8 + 5);
}

}  // namespace
}  // namespace dspot
