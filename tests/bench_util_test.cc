// The benches' nearest-rank percentile helper (bench/bench_util.h).

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <vector>

namespace dspot {
namespace {

TEST(BenchPercentile, NearestRankEdgesOfOneHundredSamples) {
  // 1..100, shuffled (37 is invertible mod 101): the helper sorts itself.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(static_cast<double>((i * 37) % 101));
  }
  // Rank ceil(p * n): p50 is the 50th smallest and p99 the 99th, not the
  // 51st and the maximum that floor(p * n) indexing returned.
  EXPECT_EQ(bench::Percentile(&samples, 0.50), 50.0);
  EXPECT_EQ(bench::Percentile(&samples, 0.99), 99.0);
  EXPECT_EQ(bench::Percentile(&samples, 1.00), 100.0);
  EXPECT_EQ(bench::Percentile(&samples, 0.01), 1.0);
  EXPECT_EQ(bench::Percentile(&samples, 0.0), 1.0);
}

TEST(BenchPercentile, EmptyAndSingleSample) {
  std::vector<double> empty;
  EXPECT_EQ(bench::Percentile(&empty, 0.5), 0.0);
  std::vector<double> one = {7.0};
  EXPECT_EQ(bench::Percentile(&one, 0.5), 7.0);
  EXPECT_EQ(bench::Percentile(&one, 0.99), 7.0);
}

}  // namespace
}  // namespace dspot
