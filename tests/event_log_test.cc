// Tests for src/tensor/event_log (raw-record aggregation) and
// src/tensor/normalization (Trends-style scaling).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>

#include "common/random.h"
#include "tensor/event_log.h"
#include "tensor/normalization.h"

namespace dspot {
namespace {

TEST(EventLog, AggregatesCountsIntoBuckets) {
  std::vector<EventRecord> records = {
      {"ebola", "US", 0},
      {"ebola", "US", 3},       // same bucket with resolution 7
      {"ebola", "US", 7},       // next bucket
      {"ebola", "JP", 8},
      {"grammy", "US", 14, 5.0},  // pre-aggregated weight
  };
  AggregationConfig config;
  config.ticks_resolution = 7;
  auto tensor = AggregateEvents(records, config);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  EXPECT_EQ(tensor->num_keywords(), 2u);
  EXPECT_EQ(tensor->num_locations(), 2u);
  EXPECT_EQ(tensor->num_ticks(), 3u);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(1, 0, 2), 5.0);
  EXPECT_EQ(tensor->KeywordIndex("grammy"), 1u);
}

TEST(EventLog, OriginShiftsTickZero) {
  AggregationConfig config;
  config.ticks_resolution = 10;
  config.origin = 100;
  auto tensor = AggregateEvents({{"a", "US", 125}}, config);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(tensor->num_ticks(), 3u);  // tick (125-100)/10 = 2
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 2), 1.0);
}

TEST(EventLog, RejectsPreOriginRecords) {
  AggregationConfig config;
  config.origin = 100;
  EXPECT_EQ(AggregateEvents({{"a", "US", 50}}, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EventLog, RejectsEmptyFields) {
  EXPECT_FALSE(AggregateEvents({{"", "US", 5}}).ok());
  EXPECT_FALSE(AggregateEvents({{"a", "", 5}}).ok());
}

TEST(EventLog, MaxTicksCapDrops) {
  AggregationConfig config;
  config.ticks_resolution = 1;
  config.max_ticks = 10;
  EventAggregator aggregator(config);
  ASSERT_TRUE(aggregator.Add({"a", "US", 5}).ok());
  ASSERT_TRUE(aggregator.Add({"a", "US", 50}).ok());  // dropped silently
  EXPECT_EQ(aggregator.dropped(), 1u);
  EXPECT_EQ(aggregator.accepted(), 1u);
  auto tensor = aggregator.Build();
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(tensor->num_ticks(), 6u);
}

TEST(EventLog, EmptyBuildFails) {
  EventAggregator aggregator(AggregationConfig{});
  EXPECT_EQ(aggregator.Build().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EventLog, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/events.csv";
  {
    std::ofstream os(path);
    os << "keyword,location,timestamp,count\n";
    os << "ebola,US,0\n";
    os << "ebola,US,6\n";
    os << "ebola,JP,8,2.5\n";
  }
  AggregationConfig config;
  config.ticks_resolution = 7;
  auto tensor = LoadAndAggregateEventsCsv(path, config);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 1, 1), 2.5);
}

TEST(EventLog, CsvRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/events_bad.csv";
  {
    std::ofstream os(path);
    os << "keyword,location,timestamp\n";
    os << "ebola,US,notanumber\n";
  }
  const Status status = LoadAndAggregateEventsCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ":2"), std::string::npos)
      << status.message();
}

TEST(EventLog, CsvSkipBadRowsAggregatesTheRest) {
  const std::string path = ::testing::TempDir() + "/events_lenient.csv";
  {
    std::ofstream os(path);
    os << "keyword,location,timestamp\n";
    os << "ebola,US,0\n";
    os << "ebola,US,12abc\n";  // trailing garbage
    os << "ebola,US\n";        // missing timestamp
    os << "ebola,US,1\n";
  }
  CsvReadOptions read_options;
  read_options.skip_bad_rows = true;
  size_t skipped = 0;
  read_options.skipped_rows = &skipped;
  auto tensor =
      LoadAndAggregateEventsCsv(path, AggregationConfig(), read_options);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  EXPECT_EQ(skipped, 2u);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 1), 1.0);
}

// Regression: two keywords and a tick of INT64_MAX asked Build for
// 2 x 1 x 2^63 cells, which wrapped to an empty tensor that the
// accumulation then wrote past. Build now fails naming the tick.
TEST(EventLog, CsvRejectsATickTooLargeToAllocate) {
  const std::string path = ::testing::TempDir() + "/events_huge_tick.csv";
  {
    std::ofstream os(path);
    os << "keyword,location,timestamp,count\n";
    os << "foo,US,0,2\n";
    os << "bar,US,9223372036854775807,3\n";
  }
  const Status status = LoadAndAggregateEventsCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("EventAggregator: tick 9223372036854775807"),
            std::string::npos)
      << status.message();
}

// A timestamp strtoll cannot hold used to read as INT64_MAX.
TEST(EventLog, CsvRejectsATimestampPastInt64AsUnparseable) {
  const std::string path = ::testing::TempDir() + "/events_erange.csv";
  {
    std::ofstream os(path);
    os << "keyword,location,timestamp\n";
    os << "foo,US,99999999999999999999\n";
  }
  const Status status = LoadAndAggregateEventsCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ":2: column 3: unparseable"),
            std::string::npos)
      << status.message();
}

// Regression: the reader never looked past the count, so a fifth field was
// silently dropped and the row aggregated.
TEST(EventLog, CsvRejectsAFifthField) {
  const std::string path = ::testing::TempDir() + "/events_fifth.csv";
  {
    std::ofstream os(path);
    os << "keyword,location,timestamp,count\n";
    os << "foo,US,0,2,junk\n";
    os << "foo,US,1,3\n";
  }
  const Status status = LoadAndAggregateEventsCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(
                path +
                ":2: column 5: expected keyword,location,timestamp[,count]"),
            std::string::npos)
      << status.message();

  CsvReadOptions read_options;
  read_options.skip_bad_rows = true;
  size_t skipped = 0;
  read_options.skipped_rows = &skipped;
  auto tensor =
      LoadAndAggregateEventsCsv(path, AggregationConfig(), read_options);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  EXPECT_EQ(skipped, 1u);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(tensor->at(0, 0, 1), 3.0);
}

TEST(Normalization, SeriesRoundTrip) {
  Series s(std::vector<double>{10, 20, 50});
  ScaleInfo info;
  Series normalized = NormalizeToMax(s, &info);
  EXPECT_DOUBLE_EQ(normalized[2], 100.0);
  EXPECT_DOUBLE_EQ(normalized[0], 20.0);
  Series back = Denormalize(normalized, info);
  for (size_t t = 0; t < s.size(); ++t) {
    EXPECT_NEAR(back[t], s[t], 1e-12);
  }
}

TEST(Normalization, DegenerateSeriesUnchanged) {
  Series zeros(std::vector<double>{0, 0});
  ScaleInfo info;
  Series normalized = NormalizeToMax(zeros, &info);
  EXPECT_DOUBLE_EQ(info.factor, 1.0);
  EXPECT_DOUBLE_EQ(normalized[0], 0.0);
}

TEST(Normalization, MissingEntriesPreserved) {
  Series s(std::vector<double>{kMissingValue, 50.0});
  Series normalized = NormalizeToMax(s, nullptr);
  EXPECT_TRUE(IsMissing(normalized[0]));
  EXPECT_DOUBLE_EQ(normalized[1], 100.0);
}

TEST(Normalization, AllMissingSeriesIsIdentity) {
  Series s(std::vector<double>{kMissingValue, kMissingValue, kMissingValue});
  ScaleInfo info;
  Series normalized = NormalizeToMax(s, &info);
  EXPECT_DOUBLE_EQ(info.factor, 1.0);
  EXPECT_TRUE(info.Valid());
  for (size_t t = 0; t < s.size(); ++t) {
    EXPECT_TRUE(IsMissing(normalized[t]));
  }
  Series back = Denormalize(normalized, info);
  for (size_t t = 0; t < s.size(); ++t) {
    EXPECT_TRUE(IsMissing(back[t]));
  }
}

TEST(Normalization, InfiniteMaxDoesNotPoisonValues) {
  // Regression: target_max / inf == 0, and inf * 0 == NaN — the seed code
  // zeroed finite values and turned the infinity itself into NaN.
  Series s(std::vector<double>{5.0, std::numeric_limits<double>::infinity()});
  ScaleInfo info;
  Series normalized = NormalizeToMax(s, &info);
  EXPECT_DOUBLE_EQ(info.factor, 1.0);
  EXPECT_DOUBLE_EQ(normalized[0], 5.0);
  EXPECT_TRUE(std::isinf(normalized[1]));
  Series back = Denormalize(normalized, info);
  EXPECT_DOUBLE_EQ(back[0], 5.0);
}

TEST(Normalization, SubnormalMaxDoesNotOverflowFactor) {
  // Regression: target_max / 1e-310 overflows to inf, so every value
  // became inf and Denormalize produced NaN.
  Series s(std::vector<double>{1e-310, 5e-311});
  ScaleInfo info;
  Series normalized = NormalizeToMax(s, &info);
  EXPECT_TRUE(std::isfinite(info.factor));
  EXPECT_DOUBLE_EQ(info.factor, 1.0);
  Series back = Denormalize(normalized, info);
  for (size_t t = 0; t < s.size(); ++t) {
    EXPECT_TRUE(std::isfinite(back[t]));
    EXPECT_DOUBLE_EQ(back[t], s[t]);
  }
}

TEST(Normalization, RoundTripPropertyOverRandomSeries) {
  // Property: for any series (missing values included, degenerate scales
  // included), Denormalize(NormalizeToMax(s)) returns each observed value
  // to within 1 ulp-ish relative error, preserves missingness exactly, and
  // the recorded ScaleInfo is always finite and valid.
  Random rng(20260805);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
    // Vary the magnitude regime across trials, hitting tiny and huge.
    const double scale = std::pow(10.0, rng.Uniform(-12.0, 12.0));
    Series s(n);
    for (size_t t = 0; t < n; ++t) {
      const double u = rng.Uniform();
      if (u < 0.2) {
        s[t] = kMissingValue;
      } else if (u < 0.3) {
        s[t] = 0.0;
      } else {
        s[t] = rng.Uniform(0.0, scale);
      }
    }
    ScaleInfo info;
    Series normalized = NormalizeToMax(s, &info);
    ASSERT_TRUE(info.Valid());
    ASSERT_TRUE(std::isfinite(info.factor));
    Series back = Denormalize(normalized, info);
    ASSERT_EQ(back.size(), s.size());
    for (size_t t = 0; t < n; ++t) {
      if (IsMissing(s[t])) {
        EXPECT_TRUE(IsMissing(normalized[t])) << "trial " << trial;
        EXPECT_TRUE(IsMissing(back[t])) << "trial " << trial;
      } else {
        ASSERT_TRUE(std::isfinite(back[t]))
            << "trial " << trial << " t=" << t << " v=" << s[t];
        EXPECT_NEAR(back[t], s[t], 4e-16 * std::fabs(s[t]) + 1e-300)
            << "trial " << trial << " t=" << t;
      }
    }
  }
}

TEST(Normalization, TensorPerKeywordSharedFactor) {
  ActivityTensor tensor(2, 2, 2);
  tensor.at(0, 0, 0) = 10.0;  // keyword 0: max 40
  tensor.at(0, 1, 1) = 40.0;
  tensor.at(1, 0, 0) = 400.0;  // keyword 1: max 400
  std::vector<ScaleInfo> infos;
  ActivityTensor normalized = NormalizeTensorPerKeyword(tensor, &infos);
  ASSERT_EQ(infos.size(), 2u);
  // Keyword 0: both locations scaled by the same factor 2.5.
  EXPECT_DOUBLE_EQ(normalized.at(0, 0, 0), 25.0);
  EXPECT_DOUBLE_EQ(normalized.at(0, 1, 1), 100.0);
  // Keyword 1 scaled independently.
  EXPECT_DOUBLE_EQ(normalized.at(1, 0, 0), 100.0);
  // Local shares within a keyword are preserved.
  EXPECT_DOUBLE_EQ(normalized.at(0, 1, 1) / normalized.at(0, 0, 0),
                   tensor.at(0, 1, 1) / tensor.at(0, 0, 0));
}

}  // namespace
}  // namespace dspot
