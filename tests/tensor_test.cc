// Unit tests for src/tensor: ActivityTensor and CSV I/O.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tensor/activity_tensor.h"
#include "tensor/tensor_io.h"

namespace dspot {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ActivityTensor, DimensionsAndDefaults) {
  ActivityTensor t(2, 3, 4);
  EXPECT_EQ(t.num_keywords(), 2u);
  EXPECT_EQ(t.num_locations(), 3u);
  EXPECT_EQ(t.num_ticks(), 4u);
  EXPECT_EQ(t.keywords()[0], "kw0");
  EXPECT_EQ(t.locations()[2], "loc2");
  EXPECT_DOUBLE_EQ(t.at(1, 2, 3), 0.0);
}

TEST(ActivityTensor, NamesAndLookup) {
  ActivityTensor t(2, 2, 2);
  ASSERT_TRUE(t.SetKeywordName(0, "ebola").ok());
  ASSERT_TRUE(t.SetLocationName(1, "JP").ok());
  EXPECT_EQ(t.KeywordIndex("ebola"), 0u);
  EXPECT_EQ(t.LocationIndex("JP"), 1u);
  EXPECT_EQ(t.KeywordIndex("nope"), kNpos);
  EXPECT_FALSE(t.SetKeywordName(5, "x").ok());
  EXPECT_FALSE(t.SetLocationName(5, "x").ok());
}

TEST(ActivityTensor, LocalSequenceRoundTrip) {
  ActivityTensor t(1, 2, 3);
  Series s(std::vector<double>{1, 2, 3});
  ASSERT_TRUE(t.SetLocalSequence(0, 1, s).ok());
  Series got = t.LocalSequence(0, 1);
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_DOUBLE_EQ(got[2], 3.0);
  EXPECT_FALSE(t.SetLocalSequence(0, 1, Series(5)).ok());
  EXPECT_FALSE(t.SetLocalSequence(3, 0, s).ok());
}

TEST(ActivityTensor, GlobalSequenceSumsAcrossLocations) {
  ActivityTensor t(1, 3, 2);
  for (size_t j = 0; j < 3; ++j) {
    t.at(0, j, 0) = static_cast<double>(j + 1);
    t.at(0, j, 1) = 10.0;
  }
  Series g = t.GlobalSequence(0);
  EXPECT_DOUBLE_EQ(g[0], 6.0);
  EXPECT_DOUBLE_EQ(g[1], 30.0);
}

TEST(ActivityTensor, GlobalSequenceMissingOnlyIfAllMissing) {
  ActivityTensor t(1, 2, 2);
  t.at(0, 0, 0) = kMissingValue;
  t.at(0, 1, 0) = 5.0;
  t.at(0, 0, 1) = kMissingValue;
  t.at(0, 1, 1) = kMissingValue;
  Series g = t.GlobalSequence(0);
  EXPECT_DOUBLE_EQ(g[0], 5.0);
  EXPECT_TRUE(IsMissing(g[1]));
}

TEST(ActivityTensor, VolumeAndObservedCount) {
  ActivityTensor t(1, 1, 4);
  t.at(0, 0, 0) = 2.0;
  t.at(0, 0, 1) = 3.0;
  t.at(0, 0, 2) = kMissingValue;
  EXPECT_DOUBLE_EQ(t.TotalVolume(), 5.0);
  EXPECT_EQ(t.ObservedCount(), 3u);
}

TEST(TensorIo, SaveLoadRoundTrip) {
  ActivityTensor t(2, 2, 3);
  ASSERT_TRUE(t.SetKeywordName(0, "a").ok());
  ASSERT_TRUE(t.SetKeywordName(1, "b").ok());
  ASSERT_TRUE(t.SetLocationName(0, "US").ok());
  ASSERT_TRUE(t.SetLocationName(1, "JP").ok());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      for (size_t k = 0; k < 3; ++k) {
        t.at(i, j, k) = static_cast<double>(i * 100 + j * 10 + k) + 0.5;
      }
    }
  }
  const std::string path = TempPath("tensor_roundtrip.csv");
  ASSERT_TRUE(SaveTensorCsv(t, path).ok());
  auto loaded = LoadTensorCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_keywords(), 2u);
  EXPECT_EQ(loaded->num_locations(), 2u);
  EXPECT_EQ(loaded->num_ticks(), 3u);
  EXPECT_EQ(loaded->keywords()[1], "b");
  EXPECT_EQ(loaded->locations()[1], "JP");
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      for (size_t k = 0; k < 3; ++k) {
        EXPECT_DOUBLE_EQ(loaded->at(i, j, k), t.at(i, j, k));
      }
    }
  }
}

TEST(TensorIo, MissingEntriesSurviveRoundTrip) {
  // Missing cells are written as explicit NaN rows, so they stay missing
  // under BOTH loader modes: fill_absent_with_zero only affects cells that
  // are genuinely absent from the file.
  ActivityTensor t(1, 1, 3);
  t.at(0, 0, 0) = 1.0;
  t.at(0, 0, 1) = kMissingValue;
  t.at(0, 0, 2) = 3.0;
  const std::string path = TempPath("tensor_missing.csv");
  ASSERT_TRUE(SaveTensorCsv(t, path).ok());
  auto as_zero = LoadTensorCsv(path, /*fill_absent_with_zero=*/true);
  ASSERT_TRUE(as_zero.ok());
  EXPECT_TRUE(IsMissing(as_zero->at(0, 0, 1)));
  auto as_missing = LoadTensorCsv(path, /*fill_absent_with_zero=*/false);
  ASSERT_TRUE(as_missing.ok());
  EXPECT_TRUE(IsMissing(as_missing->at(0, 0, 1)));
}

TEST(TensorIo, AbsentCellsStillFollowFillPolicy) {
  // A hand-written file with genuinely absent cells (no row at all) keeps
  // the historical fill_absent_with_zero behavior.
  const std::string path = TempPath("tensor_absent.csv");
  {
    std::ofstream os(path);
    os << "keyword,location,tick,value\n";
    os << "a,US,0,1.5\n";
    os << "a,US,2,2.5\n";  // tick 1 absent
  }
  auto as_zero = LoadTensorCsv(path, /*fill_absent_with_zero=*/true);
  ASSERT_TRUE(as_zero.ok());
  EXPECT_DOUBLE_EQ(as_zero->at(0, 0, 1), 0.0);
  auto as_missing = LoadTensorCsv(path, /*fill_absent_with_zero=*/false);
  ASSERT_TRUE(as_missing.ok());
  EXPECT_TRUE(IsMissing(as_missing->at(0, 0, 1)));
}

TEST(TensorIo, MissingRoundTripPreservesDimsAndExactValues) {
  // Regression: the seed writer skipped missing cells, which (a) turned
  // them into zeros under the default loader, (b) shrank the tick
  // dimension when the trailing ticks were all missing, and (c) printed
  // with 6 significant digits, losing value bits.
  ActivityTensor t(1, 2, 4);
  t.at(0, 0, 0) = 1.25;
  t.at(0, 0, 1) = kMissingValue;
  t.at(0, 0, 2) = 0.1;
  t.at(0, 0, 3) = kMissingValue;
  t.at(0, 1, 0) = 1.0 / 3.0;  // needs 17 significant digits
  t.at(0, 1, 1) = 2.0;
  t.at(0, 1, 2) = kMissingValue;
  t.at(0, 1, 3) = kMissingValue;  // trailing tick all-missing
  const std::string path = TempPath("tensor_missing_dims.csv");
  ASSERT_TRUE(SaveTensorCsv(t, path).ok());
  auto back = LoadTensorCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_ticks(), 4u);
  for (size_t j = 0; j < 2; ++j) {
    for (size_t k = 0; k < 4; ++k) {
      const double want = t.at(0, j, k);
      const double got = back->at(0, j, k);
      if (IsMissing(want)) {
        EXPECT_TRUE(IsMissing(got)) << "cell (" << j << "," << k << ")";
      } else {
        // Bit-exact, not just approximately equal.
        EXPECT_EQ(got, want) << "cell (" << j << "," << k << ")";
      }
    }
  }
}

TEST(TensorIo, LoadRejectsMissingFile) {
  EXPECT_EQ(LoadTensorCsv("/nonexistent/path.csv").status().code(),
            StatusCode::kIoError);
}

TEST(TensorIo, LoadRejectsMalformedRow) {
  const std::string path = TempPath("tensor_bad.csv");
  std::ofstream os(path);
  os << "keyword,location,tick,value\n";
  os << "a,US,0\n";  // 3 fields
  os.close();
  const Status status = LoadTensorCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The message pinpoints the defect: file, line, and column.
  EXPECT_NE(status.message().find(path + ":2"), std::string::npos)
      << status.message();
}

TEST(TensorIo, LoadRejectsBadNumber) {
  const std::string path = TempPath("tensor_badnum.csv");
  std::ofstream os(path);
  os << "keyword,location,tick,value\n";
  os << "a,US,zero,1.0\n";
  os.close();
  const Status status = LoadTensorCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("column 3"), std::string::npos)
      << status.message();
}

TEST(TensorIo, LoadRejectsTrailingGarbageAfterNumber) {
  const std::string path = TempPath("tensor_trailing.csv");
  std::ofstream os(path);
  os << "keyword,location,tick,value\n";
  os << "a,US,0,1.5abc\n";  // must not be coerced to 1.5
  os.close();
  EXPECT_EQ(LoadTensorCsv(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TensorIo, SkipBadRowsLoadsTheRestAndCounts) {
  const std::string path = TempPath("tensor_lenient.csv");
  std::ofstream os(path);
  os << "keyword,location,tick,value\n";
  os << "a,US,0,1.0\n";
  os << "phantom,US,zero,2.0\n";  // bad tick; must not intern "phantom"
  os << "a,US,1\n";               // wrong field count
  os << "a,US,2,3.0\n";
  os.close();
  CsvReadOptions read_options;
  read_options.skip_bad_rows = true;
  size_t skipped = 0;
  read_options.skipped_rows = &skipped;
  auto loaded = LoadTensorCsv(path, /*fill_absent_with_zero=*/true,
                              read_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(loaded->num_keywords(), 1u);  // "phantom" never leaked in
  EXPECT_EQ(loaded->num_ticks(), 3u);
  EXPECT_DOUBLE_EQ(loaded->at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(loaded->at(0, 0, 2), 3.0);
}

TEST(TensorIo, LoadRejectsEmptyFile) {
  const std::string path = TempPath("tensor_empty.csv");
  std::ofstream(path).close();
  EXPECT_EQ(LoadTensorCsv(path).status().code(), StatusCode::kIoError);
}

TEST(TensorIo, SeriesRoundTripWithMissing) {
  Series s(std::vector<double>{1.5, kMissingValue, 3.25});
  const std::string path = TempPath("series_roundtrip.csv");
  ASSERT_TRUE(SaveSeriesCsv(s, path).ok());
  auto loaded = LoadSeriesCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_DOUBLE_EQ((*loaded)[0], 1.5);
  EXPECT_TRUE(IsMissing((*loaded)[1]));
  EXPECT_DOUBLE_EQ((*loaded)[2], 3.25);
}

TEST(TensorIo, SeriesLoadRejectsGarbage) {
  const std::string path = TempPath("series_bad.csv");
  std::ofstream os(path);
  os << "tick,value\n0,1.0,extra\n";
  os.close();
  EXPECT_EQ(LoadSeriesCsv(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TensorIo, SeriesSkipBadRowsLoadsTheRest) {
  const std::string path = TempPath("series_lenient.csv");
  std::ofstream os(path);
  os << "tick,value\n0,1.0\nbroken\n2,3.0\n";
  os.close();
  CsvReadOptions read_options;
  read_options.skip_bad_rows = true;
  size_t skipped = 0;
  read_options.skipped_rows = &skipped;
  auto loaded = LoadSeriesCsv(path, read_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_DOUBLE_EQ((*loaded)[0], 1.0);
  EXPECT_DOUBLE_EQ((*loaded)[2], 3.0);
}

// Regression: a tick near INT64_MAX sized the tensor from max tick + 1,
// and 2 x 1 x 2^63 cells wrapped to an empty buffer that the record writes
// then overran. The load now fails before sizing, naming file and tick.
TEST(TensorIo, LoadRejectsATickTooLargeToAllocate) {
  const std::string path = TempPath("tensor_huge_tick.csv");
  std::ofstream os(path);
  os << "keyword,location,tick,value\n";
  os << "foo,US,0,2\n";
  os << "bar,US,9223372036854775807,3\n";
  os.close();
  const Status status = LoadTensorCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ": tick 9223372036854775807"),
            std::string::npos)
      << status.message();
}

// A tick of 2^50 sizes a tensor a vector could hold but no host's memory
// can; the load used to abort with std::bad_alloc.
TEST(TensorIo, LoadRejectsATickPastMemory) {
  const std::string path = TempPath("tensor_past_memory_tick.csv");
  std::ofstream os(path);
  os << "keyword,location,tick,value\n";
  os << "foo,US,0,2\n";
  os << "foo,US,1125899906842624,2\n";
  os.close();
  const Status status = LoadTensorCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ": tick 1125899906842624"),
            std::string::npos)
      << status.message();
}

// A tick strtoll cannot hold used to read as INT64_MAX (ERANGE was never
// checked) and abort the load with std::length_error. It is unparseable.
TEST(TensorIo, LoadRejectsATickPastInt64AsUnparseable) {
  const std::string path = TempPath("tensor_erange_tick.csv");
  std::ofstream os(path);
  os << "keyword,location,tick,value\n";
  os << "foo,US,99999999999999999999,1\n";
  os.close();
  const Status status = LoadTensorCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ":2: column 3: unparseable"),
            std::string::npos)
      << status.message();
}

TEST(TensorIo, SeriesLoadRejectsATickTooLargeToAllocate) {
  const std::string path = TempPath("series_huge_tick.csv");
  std::ofstream os(path);
  os << "tick,value\n0,1\n9223372036854775807,2\n";
  os.close();
  const Status status = LoadSeriesCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ": tick 9223372036854775807"),
            std::string::npos)
      << status.message();
}

TEST(TensorIo, SeriesLoadRejectsATickPastMemory) {
  const std::string path = TempPath("series_past_memory_tick.csv");
  std::ofstream os(path);
  os << "tick,value\n0,1\n1125899906842624,2\n";
  os.close();
  const Status status = LoadSeriesCsv(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ": tick 1125899906842624"),
            std::string::npos)
      << status.message();
}

TEST(ActivityTensor, CheckTickExtentRejectsOverflowAndOversize) {
  EXPECT_TRUE(CheckTickExtent(2, 3, 100, "ctx").ok());
  // d * l * (max tick + 1) wraps size_t to 0.
  const Status wrapped = CheckTickExtent(2, 1, size_t{1} << 63, "ctx");
  EXPECT_EQ(wrapped.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wrapped.message().rfind("ctx: tick 9223372036854775808", 0), 0u)
      << wrapped.message();
  // max tick + 1 itself wraps.
  EXPECT_EQ(CheckTickExtent(1, 1, SIZE_MAX, "ctx").code(),
            StatusCode::kInvalidArgument);
  // No wrap, but more cells than a vector<double> can hold.
  const size_t max_cells = std::vector<double>().max_size();
  EXPECT_EQ(CheckTickExtent(1, 1, max_cells, "ctx").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckTickExtent(2, 1, max_cells / 2, "ctx").code(),
            StatusCode::kInvalidArgument);
  // A vector could hold 2^50 cells, but their 8 PiB exceed any host's
  // memory; the check allocates nothing.
  const Status oversize = CheckTickExtent(1, 1, size_t{1} << 50, "ctx");
  EXPECT_EQ(oversize.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(oversize.message().rfind("ctx: tick 1125899906842624", 0), 0u)
      << oversize.message();
  EXPECT_NE(oversize.message().find("physical memory"), std::string::npos)
      << oversize.message();
  EXPECT_EQ(CheckTickExtent(1, 1, max_cells - 1, "ctx").code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dspot
