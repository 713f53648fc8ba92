// Model snapshots: bit-exact round-trips through both backends, the
// warm-start refit path they feed, and the incremental UpdateFit built on
// top. Serving correctness demands exactness, so the round-trip tests
// compare canonical payload bytes (every double bit for bit), not
// tolerances.

#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/dspot.h"
#include "core/forecast.h"
#include "core/report.h"
#include "core/simulate.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "obs/metrics.h"
#include "snapshot/update.h"

namespace dspot {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A small but non-trivial fitted model: two keywords, a handful of
/// locations, shocks present.
struct Fitted {
  ActivityTensor tensor;
  DspotResult result;
};

Fitted FitSmallTensor(size_t num_threads = 1) {
  GeneratorConfig config = GoogleTrendsConfig(11);
  config.n_ticks = 156;
  config.num_locations = 3;
  config.num_outlier_locations = 0;
  auto generated =
      GenerateTensor({GrammyScenario(), HarryPotterScenario()}, config);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  DspotOptions options;
  options.num_threads = num_threads;
  auto fit = FitDspot(generated->tensor, options);
  EXPECT_TRUE(fit.ok()) << fit.status().ToString();
  return Fitted{generated->tensor, std::move(*fit)};
}

TEST(Snapshot, BinaryRoundTripIsBitExact) {
  const Fitted fitted = FitSmallTensor();
  const ModelSnapshot snapshot = MakeSnapshot(fitted.result, fitted.tensor);
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Canonical payload equality covers every field — params, shocks,
  // labels, scales, rmse, cost, health — bit for bit.
  EXPECT_EQ(EncodeSnapshotPayload(snapshot), EncodeSnapshotPayload(*loaded));
  // And the loaded model serves identically: same report, same forecast.
  EXPECT_EQ(RenderReport(snapshot.params, snapshot.keywords),
            RenderReport(loaded->params, loaded->keywords));
  for (size_t i = 0; i < snapshot.params.num_keywords; ++i) {
    auto want = ForecastGlobal(snapshot.params, i, 20);
    auto got = ForecastGlobal(loaded->params, i, 20);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t t = 0; t < want->size(); ++t) {
      EXPECT_EQ((*want)[t], (*got)[t]) << "keyword " << i << " tick " << t;
    }
  }
}

TEST(Snapshot, JsonRoundTripIsBitExactAndAgreesWithBinary) {
  const Fitted fitted = FitSmallTensor();
  ModelSnapshot snapshot = MakeSnapshot(fitted.result, fitted.tensor);
  // Exercise the ScaleInfo field too, including a non-trivial factor.
  snapshot.scales.resize(snapshot.keywords.size());
  snapshot.scales[0].factor = 0.3725290298461914;  // not a power of two
  const std::string bin_path = TempPath("agree.snap");
  const std::string json_path = TempPath("agree.json");
  ASSERT_TRUE(SaveSnapshot(snapshot, bin_path).ok());
  ASSERT_TRUE(
      SaveSnapshot(snapshot, json_path, SnapshotFormat::kJson).ok());
  auto from_bin = LoadSnapshot(bin_path);
  auto from_json = LoadSnapshot(json_path);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ASSERT_TRUE(from_json.ok()) << from_json.status().ToString();
  const std::vector<uint8_t> want = EncodeSnapshotPayload(snapshot);
  EXPECT_EQ(want, EncodeSnapshotPayload(*from_bin));
  EXPECT_EQ(want, EncodeSnapshotPayload(*from_json));
}

TEST(Snapshot, JsonSurvivesNonFiniteAndSentinelValues) {
  ModelSnapshot snapshot;
  ModelParamSet& params = snapshot.params;
  params.num_keywords = 1;
  params.num_locations = 1;
  params.num_ticks = 10;
  params.global.resize(1);
  params.global[0].growth_start = kNpos;  // disabled sentinel
  params.global[0].beta = 1e-310;         // subnormal
  params.global[0].i0 = std::numeric_limits<double>::infinity();
  snapshot.keywords = {"kw \"quoted\" \\ tab\t"};
  snapshot.locations = {"loc"};
  snapshot.global_rmse = {std::nan("")};
  const std::string path = TempPath("nonfinite.json");
  ASSERT_TRUE(SaveSnapshot(snapshot, path, SnapshotFormat::kJson).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeSnapshotPayload(snapshot), EncodeSnapshotPayload(*loaded));
  EXPECT_EQ(loaded->params.global[0].growth_start, kNpos);
  EXPECT_TRUE(std::isinf(loaded->params.global[0].i0));
  EXPECT_TRUE(std::isnan(loaded->global_rmse[0]));
}

TEST(Snapshot, FitIsThreadCountInvariantThroughSnapshots) {
  // The determinism contract extends through persistence: fit at 1 and 8
  // threads, snapshot both, and the canonical payloads agree except for
  // wall-clock health (zeroed here — it is honest timing, not model).
  Fitted serial = FitSmallTensor(1);
  Fitted threaded = FitSmallTensor(8);
  ModelSnapshot a = MakeSnapshot(serial.result, serial.tensor);
  ModelSnapshot b = MakeSnapshot(threaded.result, threaded.tensor);
  a.health = FitHealth();
  b.health = FitHealth();
  EXPECT_EQ(EncodeSnapshotPayload(a), EncodeSnapshotPayload(b));
}

TEST(Snapshot, WarmStartRefitUsesFewerLmIterations) {
  ObsRegistry::Instance().Enable(ObsOptions());
  const Fitted fitted = FitSmallTensor();
  const ModelSnapshot snapshot = MakeSnapshot(fitted.result, fitted.tensor);
  const std::string path = TempPath("warm.snap");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ObsRegistry::Instance().Reset();
  auto cold = FitDspot(fitted.tensor);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const ObsSnapshot cold_obs = ObsRegistry::Instance().Snapshot();
  const uint64_t cold_iters = cold_obs.CounterValue("lm.iterations");
  EXPECT_EQ(cold_obs.CounterValue("global_fit.cold_starts"),
            fitted.tensor.num_keywords());
  EXPECT_EQ(cold_obs.CounterValue("global_fit.warm_starts"), 0u);

  ObsRegistry::Instance().Reset();
  DspotOptions options;
  options.warm_start = &loaded->params;
  auto warm = FitDspot(fitted.tensor, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const ObsSnapshot warm_obs = ObsRegistry::Instance().Snapshot();
  const uint64_t warm_iters = warm_obs.CounterValue("lm.iterations");
  EXPECT_EQ(warm_obs.CounterValue("global_fit.warm_starts"),
            fitted.tensor.num_keywords());
  EXPECT_EQ(warm_obs.CounterValue("global_fit.cold_starts"), 0u);

  // The tentpole's measurable claim: seeding from the snapshot skips the
  // cold multi-start search, and the solver does strictly less work.
  EXPECT_LT(warm_iters, cold_iters);
  // And the refit model still explains the data comparably well.
  EXPECT_LE(warm->total_cost_bits, cold->total_cost_bits * 1.05);
}

TEST(Snapshot, WarmStartRejectsShrinkingTensor) {
  const Fitted fitted = FitSmallTensor();
  ModelParamSet params = fitted.result.params;
  params.num_ticks = fitted.tensor.num_ticks() + 1;  // claims more history
  DspotOptions options;
  options.warm_start = &params;
  auto fit = FitDspot(fitted.tensor, options);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

/// Extends the tensor with `appended` ticks that track the model's own
/// extrapolation, split evenly across locations — the appended window a
/// well-served model expects, with no bursts.
ActivityTensor ExtendAlongModel(const ActivityTensor& tensor,
                                const ModelParamSet& params,
                                size_t appended) {
  const size_t old_n = tensor.num_ticks();
  ActivityTensor out(tensor.num_keywords(), tensor.num_locations(),
                     old_n + appended);
  for (size_t i = 0; i < tensor.num_keywords(); ++i) {
    (void)out.SetKeywordName(i, tensor.keywords()[i]);
    const Series extrapolated = SimulateGlobal(params, i, old_n + appended);
    for (size_t j = 0; j < tensor.num_locations(); ++j) {
      for (size_t t = 0; t < old_n; ++t) {
        out.at(i, j, t) = tensor.at(i, j, t);
      }
      for (size_t t = old_n; t < old_n + appended; ++t) {
        out.at(i, j, t) = extrapolated[t] /
                          static_cast<double>(tensor.num_locations());
      }
    }
  }
  for (size_t j = 0; j < tensor.num_locations(); ++j) {
    (void)out.SetLocationName(j, tensor.locations()[j]);
  }
  return out;
}

TEST(Snapshot, UpdateFitKeepsCachedScheduleOnQuietData) {
  const Fitted fitted = FitSmallTensor();
  const ModelSnapshot snapshot = MakeSnapshot(fitted.result, fitted.tensor);
  const ActivityTensor extended =
      ExtendAlongModel(fitted.tensor, snapshot.params, 26);
  auto update = UpdateFit(snapshot, extended);
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->appended_ticks, 26u);
  for (size_t i = 0; i < update->redetected.size(); ++i) {
    EXPECT_FALSE(update->redetected[i]) << "keyword " << i;
  }
  // The cached schedule survived: no keyword gained shocks.
  for (size_t i = 0; i < fitted.tensor.num_keywords(); ++i) {
    size_t before = 0, after = 0;
    for (const Shock& s : snapshot.params.shocks) before += s.keyword == i;
    for (const Shock& s : update->result.params.shocks) {
      after += s.keyword == i;
    }
    EXPECT_LE(after, before) << "keyword " << i;
  }
  EXPECT_EQ(update->result.params.num_ticks, extended.num_ticks());
}

TEST(Snapshot, UpdateFitRedetectsOnBurstingData) {
  const Fitted fitted = FitSmallTensor();
  const ModelSnapshot snapshot = MakeSnapshot(fitted.result, fitted.tensor);
  ActivityTensor extended =
      ExtendAlongModel(fitted.tensor, snapshot.params, 26);
  // A sustained, massive burst on keyword 0 only.
  const size_t old_n = fitted.tensor.num_ticks();
  for (size_t t = old_n + 5; t < old_n + 12; ++t) {
    for (size_t j = 0; j < extended.num_locations(); ++j) {
      extended.at(0, j, t) += 1e4;
    }
  }
  auto update = UpdateFit(snapshot, extended);
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(update->redetected[0]);
  for (size_t i = 1; i < update->redetected.size(); ++i) {
    EXPECT_FALSE(update->redetected[i]) << "keyword " << i;
  }
}

TEST(Snapshot, UpdateFitRejectsMismatchedTensors) {
  const Fitted fitted = FitSmallTensor();
  const ModelSnapshot snapshot = MakeSnapshot(fitted.result, fitted.tensor);

  ActivityTensor wrong_keywords(fitted.tensor.num_keywords() + 1,
                                fitted.tensor.num_locations(),
                                fitted.tensor.num_ticks());
  auto r1 = UpdateFit(snapshot, wrong_keywords);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  ActivityTensor wrong_locations(fitted.tensor.num_keywords(),
                                 fitted.tensor.num_locations() + 2,
                                 fitted.tensor.num_ticks());
  auto r2 = UpdateFit(snapshot, wrong_locations);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  ActivityTensor shrunk(fitted.tensor.num_keywords(),
                        fitted.tensor.num_locations(),
                        fitted.tensor.num_ticks() - 1);
  auto r3 = UpdateFit(snapshot, shrunk);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
}

/// A tiny labeled tensor with at(i, j, t) = base + t, for concatenation
/// checks where value provenance must be visible.
ActivityTensor SmallTensor(size_t n_ticks, double base) {
  ActivityTensor tensor(2, 2, n_ticks);
  EXPECT_TRUE(tensor.SetKeywordName(0, "alpha").ok());
  EXPECT_TRUE(tensor.SetKeywordName(1, "beta").ok());
  EXPECT_TRUE(tensor.SetLocationName(0, "us").ok());
  EXPECT_TRUE(tensor.SetLocationName(1, "jp").ok());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      for (size_t t = 0; t < n_ticks; ++t) {
        tensor.at(i, j, t) = base + static_cast<double>(t);
      }
    }
  }
  return tensor;
}

TEST(Snapshot, ConcatTicksAppendsDirectlyAfterTheBase) {
  const ActivityTensor base = SmallTensor(10, 0.0);
  const ActivityTensor extra = SmallTensor(4, 100.0);
  // Both the explicit placement and the legacy relative-tick default.
  for (const size_t placement : {size_t{10}, kNpos}) {
    auto combined = ConcatTicks(base, extra, placement);
    ASSERT_TRUE(combined.ok()) << combined.status().ToString();
    EXPECT_EQ(combined->num_ticks(), 14u);
    EXPECT_EQ(combined->keywords()[0], "alpha");
    EXPECT_EQ(combined->locations()[1], "jp");
    EXPECT_DOUBLE_EQ(combined->at(1, 0, 9), 9.0);
    EXPECT_DOUBLE_EQ(combined->at(1, 0, 10), 100.0);
    EXPECT_DOUBLE_EQ(combined->at(0, 1, 13), 103.0);
  }
}

TEST(Snapshot, ConcatTicksRejectsOverlappingPlacement) {
  // Regression: an append whose ticks the base already covers used to be
  // silently concatenated after the base, double-counting the overlap
  // under shifted timestamps. It must be a located error instead.
  const ActivityTensor base = SmallTensor(10, 0.0);
  const ActivityTensor extra = SmallTensor(4, 100.0);
  auto overlapped = ConcatTicks(base, extra, /*extra_first_tick=*/6);
  ASSERT_FALSE(overlapped.ok());
  EXPECT_EQ(overlapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overlapped.status().message().find("already covers"),
            std::string::npos)
      << overlapped.status().ToString();
  // A duplicate replay of the same range is the degenerate overlap.
  EXPECT_FALSE(ConcatTicks(base, extra, 0).ok());
}

TEST(Snapshot, ConcatTicksRejectsGappedPlacement) {
  const ActivityTensor base = SmallTensor(10, 0.0);
  const ActivityTensor extra = SmallTensor(4, 100.0);
  auto gapped = ConcatTicks(base, extra, /*extra_first_tick=*/13);
  ASSERT_FALSE(gapped.ok());
  EXPECT_EQ(gapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(gapped.status().message().find("gap"), std::string::npos)
      << gapped.status().ToString();
}

TEST(Snapshot, ConcatTicksRejectsMismatchedLabels) {
  const ActivityTensor base = SmallTensor(10, 0.0);
  ActivityTensor renamed = SmallTensor(4, 100.0);
  ASSERT_TRUE(renamed.SetKeywordName(1, "gamma").ok());
  EXPECT_FALSE(ConcatTicks(base, renamed, 10).ok());

  ActivityTensor wrong_shape(2, 3, 4);
  EXPECT_FALSE(ConcatTicks(base, wrong_shape, 10).ok());
}

TEST(Snapshot, LoadReportsMissingFile) {
  auto loaded = LoadSnapshot(TempPath("does_not_exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("does_not_exist"),
            std::string::npos);
}

// A directory is not sized by seeking to its end (ext4 reports a huge
// offset there): the load fails cleanly instead of allocating it.
TEST(Snapshot, LoadOfADirectoryIsACleanError) {
  auto loaded = LoadSnapshot(::testing::TempDir());
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().code() == StatusCode::kInvalidArgument ||
              loaded.status().code() == StatusCode::kIoError)
      << loaded.status().ToString();
}

// Regression (PR 9): a hostile file whose label table disagrees with its
// declared dimensions must be rejected at load time. Before the fix such
// a snapshot decoded "successfully" and every by-name consumer (the serve
// registry's reload path above all) indexed past the label table or onto
// the wrong keyword.
TEST(Snapshot, LoadRejectsLabelCountMismatch) {
  ModelSnapshot hostile;
  hostile.params.num_keywords = 3;
  hostile.params.num_locations = 0;
  hostile.params.num_ticks = 10;
  hostile.params.global.resize(3);
  hostile.keywords = {"only-one-label"};  // claims 3 keywords
  hostile.global_rmse = {1.0, 1.0, 1.0};
  const std::string path = TempPath("hostile_label_count.snap");
  // SaveSnapshot writes what it is given; the LOAD side owns validation.
  ASSERT_TRUE(SaveSnapshot(hostile, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("keyword label count"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(Snapshot, LoadRejectsDuplicateKeywordLabels) {
  ModelSnapshot hostile;
  hostile.params.num_keywords = 2;
  hostile.params.num_locations = 0;
  hostile.params.num_ticks = 10;
  hostile.params.global.resize(2);
  hostile.keywords = {"grammy", "grammy"};  // by-name lookup is ambiguous
  hostile.global_rmse = {1.0, 2.0};
  const std::string path = TempPath("hostile_dup_labels.snap");
  ASSERT_TRUE(SaveSnapshot(hostile, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("duplicate keyword label"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(Snapshot, LoadRejectsRmseCountMismatch) {
  ModelSnapshot hostile;
  hostile.params.num_keywords = 2;
  hostile.params.num_locations = 0;
  hostile.params.num_ticks = 10;
  hostile.params.global.resize(2);
  hostile.keywords = {"a", "b"};
  hostile.global_rmse = {1.0};  // one entry for two keywords
  const std::string path = TempPath("hostile_rmse_count.snap");
  ASSERT_TRUE(SaveSnapshot(hostile, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("rmse count"), std::string::npos)
      << loaded.status().ToString();
}

/// A one-keyword snapshot with a shock, for the in-memory decoder tests.
ModelSnapshot OneKeywordSnapshot() {
  ModelSnapshot s;
  s.params.num_keywords = 1;
  s.params.num_locations = 0;
  s.params.num_ticks = 64;
  KeywordGlobalParams p;
  p.population = 1234.5;
  p.beta = 0.25;
  p.growth_rate = 0.5;
  p.growth_start = 40;
  s.params.global = {p};
  Shock shock;
  shock.period = 7;
  shock.start = 3;
  shock.width = 2;
  shock.base_strength = 1.5;
  shock.global_strengths = {1.5, 1.7, 1.5};
  s.params.shocks = {shock};
  s.keywords = {"grammy"};
  s.global_rmse = {3.25};
  s.total_cost_bits = 812.5;
  return s;
}

// DecodeSnapshotFile is the one binary decoder: LoadSnapshot's binary
// branch and every serve-registry reload use it. Each strict prefix of an
// image — copied, so a read past its end is a sanitizer error — fails
// with an error that starts with the caller's context, never with a
// partial model.
TEST(Snapshot, DecodeFileRejectsEveryTruncation) {
  const ModelSnapshot snapshot = OneKeywordSnapshot();
  const std::vector<uint8_t> image = EncodeSnapshotFile(snapshot);
  auto whole = DecodeSnapshotFile(image.data(), image.size(), "ctx");
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(EncodeSnapshotPayload(*whole), EncodeSnapshotPayload(snapshot));
  for (size_t len = 0; len < image.size(); ++len) {
    const std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    auto cut = DecodeSnapshotFile(prefix.data(), prefix.size(), "ctx");
    ASSERT_FALSE(cut.ok()) << "prefix " << len;
    // Up to the whole magic the bytes are not a snapshot at all.
    EXPECT_EQ(cut.status().code(),
              len < 8 ? StatusCode::kInvalidArgument : StatusCode::kDataLoss)
        << "prefix " << len << ": " << cut.status().ToString();
    EXPECT_EQ(cut.status().message().rfind("ctx: ", 0), 0u)
        << cut.status().ToString();
  }
}

// Every single-bit flip is caught: in the magic or version as
// InvalidArgument, anywhere else as DataLoss (a length check or the
// payload CRC, which detects every single-bit error).
TEST(Snapshot, DecodeFileCatchesEveryBitFlip) {
  const std::vector<uint8_t> image = EncodeSnapshotFile(OneKeywordSnapshot());
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = image;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      auto got = DecodeSnapshotFile(flipped.data(), flipped.size(), "ctx");
      ASSERT_FALSE(got.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(got.status().code(), byte < 12 ? StatusCode::kInvalidArgument
                                               : StatusCode::kDataLoss)
          << "byte " << byte << " bit " << bit << ": "
          << got.status().ToString();
    }
  }
}

}  // namespace
}  // namespace dspot
