// dspot_serve: the sharded LRU model registry (spill, reload, torn tails,
// compaction, log versions), the batching request engine (admission
// control, deadlines, determinism), and the wire protocol. The concurrency
// tests run N client threads against an evicting registry and hold the
// replies bit-identical to a serial replay of the admitted request log —
// serving must never trade correctness for parallelism.

#include "serve/serve_engine.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/global_fit.h"
#include "guard/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "timeseries/series.h"

namespace dspot {
namespace {

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A synthetic model — registry tests exercise storage, not fitting.
ServedModel MakeModel(const std::string& keyword, double seed) {
  ServedModel model;
  model.keyword = keyword;
  model.params.population = 1000.0 + seed;
  model.params.beta = 0.2 + seed / 1000.0;
  model.params.delta = 0.11;
  model.params.gamma = 0.07;
  model.params.i0 = 2.0;
  model.params.growth_rate = 0.5;
  model.params.growth_start = 40;
  Shock shock;
  shock.keyword = 0;
  shock.period = 7;
  shock.start = 3;
  shock.width = 2;
  shock.base_strength = 1.5 + seed / 100.0;
  shock.global_strengths = {1.5, 1.7, 1.5};
  model.shocks.push_back(shock);
  model.fit_ticks = 64;
  model.rmse = 3.25 + seed;
  model.cost_bits = 812.5;
  return model;
}

/// Bit-level model equality via the spill record, which encodes every
/// field of the model.
::testing::AssertionResult SameModelBits(const ServedModel& a,
                                         const ServedModel& b) {
  if (EncodeSpillRecord(a) == EncodeSpillRecord(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "models '" << a.keyword << "' and '" << b.keyword
         << "' differ at the bit level";
}

std::string LogPathIn(const std::string& dir) {
  return dir + "/" + kSpillLogName;
}

/// The names of the files in `dir`, sorted.
std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

void AppendBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  const char c = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5A));
  ASSERT_TRUE(f.good()) << path;
}

/// The size of `model`'s spill-log record.
uint64_t RecordBytes(const ServedModel& model) {
  return EncodeSpillRecord(model).size();
}

/// A deterministic activity series for engine tests (short, so cold fits
/// stay fast under TSan).
std::vector<double> TestSeries(size_t n, double phase) {
  std::vector<double> values(n);
  for (size_t t = 0; t < n; ++t) {
    double v = 30.0 + 8.0 * std::sin(0.9 * static_cast<double>(t) + phase);
    if (t >= 20 && t < 23) {
      v += 40.0;
    }
    values[t] = v;
  }
  return values;
}

// ---------------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistry, PutGetRoundTripsBitExactly) {
  RegistryOptions options;
  options.max_resident_bytes = 1ull << 20;
  ModelRegistry registry(options);
  const ServedModel model = MakeModel("grammy", 1.0);
  ASSERT_TRUE(registry.Put(model).ok());
  EXPECT_TRUE(registry.Resident("grammy"));
  auto got = registry.Get("grammy");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameModelBits(model, *got));
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_models, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(ModelRegistry, GetUnknownKeywordIsNotFound) {
  ModelRegistry registry(RegistryOptions{});
  auto got = registry.Get("never-put");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_NE(got.status().message().find("never-put"), std::string::npos);
}

TEST(ModelRegistry, EvictsLeastRecentlyUsedWithoutSpill) {
  RegistryOptions options;
  options.num_shards = 1;
  // Room for roughly one model: the second Put must evict the first.
  options.max_resident_bytes = MakeModel("a", 0.0).ResidentBytes() + 16;
  ModelRegistry registry(options);
  ASSERT_TRUE(registry.Put(MakeModel("a", 1.0)).ok());
  ASSERT_TRUE(registry.Put(MakeModel("b", 2.0)).ok());
  EXPECT_FALSE(registry.Resident("a"));
  EXPECT_TRUE(registry.Resident("b"));
  EXPECT_EQ(registry.stats().evictions, 1u);
  // Without a spill directory, eviction forgets the model.
  auto got = registry.Get("a");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistry, TouchRefreshesLruOrder) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 2 * MakeModel("a", 0.0).ResidentBytes() + 32;
  ModelRegistry registry(options);
  ASSERT_TRUE(registry.Put(MakeModel("a", 1.0)).ok());
  ASSERT_TRUE(registry.Put(MakeModel("b", 2.0)).ok());
  // Touch "a" so "b" becomes the LRU victim of the next insert.
  ASSERT_TRUE(registry.Get("a").ok());
  ASSERT_TRUE(registry.Put(MakeModel("c", 3.0)).ok());
  EXPECT_TRUE(registry.Resident("a"));
  EXPECT_FALSE(registry.Resident("b"));
  EXPECT_TRUE(registry.Resident("c"));
}

TEST(ModelRegistry, OversizedModelDegradesToCacheOfOne) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 1;  // smaller than any model
  ModelRegistry registry(options);
  ASSERT_TRUE(registry.Put(MakeModel("big", 1.0)).ok());
  // The just-admitted entry is never evicted, so the registry still works.
  EXPECT_TRUE(registry.Resident("big"));
  ASSERT_TRUE(registry.Put(MakeModel("bigger", 2.0)).ok());
  EXPECT_FALSE(registry.Resident("big"));
  EXPECT_TRUE(registry.Resident("bigger"));
}

TEST(ModelRegistry, EvictedModelReloadsBitIdenticallyFromSpill) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = MakeModel("a", 0.0).ResidentBytes() + 16;
  options.spill_dir = TempDirFor("registry_spill_reload");
  ModelRegistry registry(options);
  const ServedModel a = MakeModel("a", 1.0);
  ASSERT_TRUE(registry.Put(a).ok());
  ASSERT_TRUE(registry.Put(MakeModel("b", 2.0)).ok());
  ASSERT_FALSE(registry.Resident("a"));
  auto got = registry.Get("a");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameModelBits(a, *got));
  EXPECT_TRUE(registry.Resident("a"));
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_GE(stats.spills, 2u);
}

TEST(ModelRegistry, SpillSurvivesRegistryRestart) {
  RegistryOptions options;
  options.spill_dir = TempDirFor("registry_restart");
  const ServedModel model = MakeModel("persistent", 4.0);
  {
    ModelRegistry registry(options);
    ASSERT_TRUE(registry.Put(model).ok());
  }
  ModelRegistry reborn(options);
  EXPECT_FALSE(reborn.Resident("persistent"));
  auto got = reborn.Get("persistent");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameModelBits(model, *got));
}

// Keywords never become file names: the spill directory holds one log
// whatever the keywords, so a hostile keyword cannot escape it, and
// keywords that differ only in bytes a filename mapping would fold or
// escape stay distinct.
TEST(ModelRegistry, HostileKeywordsRoundTripWithoutNamingAFile) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 1;  // cache-of-one: every Get below reloads
  options.spill_dir = TempDirFor("registry_hostile");
  ModelRegistry registry(options);
  const std::vector<std::string> keywords = {
      "../etc passwd/..", "a/b", "a_b", "a%2Fb", std::string("nul\0byte", 8)};
  for (size_t i = 0; i < keywords.size(); ++i) {
    ASSERT_TRUE(
        registry.Put(MakeModel(keywords[i], static_cast<double>(i))).ok());
  }
  for (size_t i = 0; i < keywords.size(); ++i) {
    auto got = registry.Get(keywords[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(
        SameModelBits(MakeModel(keywords[i], static_cast<double>(i)), *got));
  }
  EXPECT_EQ(FilesIn(options.spill_dir),
            std::vector<std::string>{kSpillLogName});
  EXPECT_FALSE(std::filesystem::exists(options.spill_dir + "/../etc passwd"));
}

// Case variants are distinct keywords: on a case-insensitive filesystem
// per-keyword files could share a name, a single log cannot.
TEST(ModelRegistry, CaseVariantKeywordsRoundTripIndependently) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 1;
  options.spill_dir = TempDirFor("registry_case");
  ModelRegistry registry(options);
  const std::vector<std::string> keywords = {"Foo", "foo", "FOO",
                                             "grammy A", "grammy a"};
  for (size_t i = 0; i < keywords.size(); ++i) {
    ASSERT_TRUE(
        registry.Put(MakeModel(keywords[i], static_cast<double>(i))).ok());
  }
  for (size_t i = 0; i < keywords.size(); ++i) {
    auto got = registry.Get(keywords[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(
        SameModelBits(MakeModel(keywords[i], static_cast<double>(i)), *got));
  }
  EXPECT_EQ(FilesIn(options.spill_dir),
            std::vector<std::string>{kSpillLogName});
}

TEST(ModelRegistry, ReloadSurfacesCorruptSpillAsDataLoss) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 1;
  options.spill_dir = TempDirFor("registry_corrupt");
  ModelRegistry registry(options);
  const ServedModel broken = MakeModel("broken", 1.0);
  const ServedModel evictor = MakeModel("evictor", 2.0);
  ASSERT_TRUE(registry.Put(broken).ok());
  ASSERT_TRUE(registry.Put(evictor).ok());
  ASSERT_FALSE(registry.Resident("broken"));
  // Flip one byte inside "broken"'s model payload, behind the registry;
  // the body CRC must catch it on reload.
  const std::string log = LogPathIn(options.spill_dir);
  const uint64_t offset = std::filesystem::file_size(log) -
                          RecordBytes(evictor) - RecordBytes(broken);
  FlipByte(log, offset + RecordBytes(broken) - 12);
  auto got = registry.Get("broken");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(got.status().message().find(log), std::string::npos)
      << got.status().ToString();
  EXPECT_NE(
      got.status().message().find("offset " + std::to_string(offset)),
      std::string::npos)
      << got.status().ToString();
}

// The log's layout depends on neither the shard count nor std::hash, so a
// registry reopened with a different num_shards finds every model.
TEST(ModelRegistry, RestartWithADifferentShardCountFindsEveryModel) {
  RegistryOptions options;
  options.num_shards = 4;
  options.max_resident_bytes = 1;
  options.spill_dir = TempDirFor("registry_reshard");
  constexpr int kModels = 20;
  {
    ModelRegistry registry(options);
    for (int i = 0; i < kModels; ++i) {
      ASSERT_TRUE(
          registry.Put(MakeModel("kw" + std::to_string(i), i)).ok());
    }
  }
  options.num_shards = 7;
  ModelRegistry reborn(options);
  for (int i = 0; i < kModels; ++i) {
    const std::string keyword = "kw" + std::to_string(i);
    auto got = reborn.Get(keyword);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(SameModelBits(MakeModel(keyword, i), *got));
  }
  EXPECT_EQ(reborn.stats().reloads, static_cast<uint64_t>(kModels));
}

// A crash mid-append leaves a partial last record. Opening the registry
// drops it and keeps every complete record; appends resume after them.
TEST(ModelRegistry, TornTailIsTruncatedAtOpen) {
  RegistryOptions options;
  options.spill_dir = TempDirFor("registry_torn_tail");
  const std::string log = LogPathIn(options.spill_dir);
  const ServedModel a = MakeModel("a", 1.0);
  const ServedModel b = MakeModel("b", 2.0);
  const ServedModel c = MakeModel("c", 3.0);
  {
    ModelRegistry registry(options);
    ASSERT_TRUE(registry.Put(a).ok());
    ASSERT_TRUE(registry.Put(b).ok());
  }
  const uint64_t complete = std::filesystem::file_size(log);
  const std::vector<uint8_t> record = EncodeSpillRecord(c);
  for (const size_t torn : {size_t{5}, size_t{12}, record.size() / 2,
                            record.size() - 1}) {
    AppendBytes(log, std::vector<uint8_t>(record.begin(),
                                          record.begin() + torn));
    ModelRegistry reopened(options);
    ASSERT_TRUE(reopened.open_status().ok())
        << reopened.open_status().ToString();
    EXPECT_EQ(std::filesystem::file_size(log), complete) << "tail " << torn;
    auto got_a = reopened.Get("a");
    auto got_b = reopened.Get("b");
    ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
    ASSERT_TRUE(got_b.ok()) << got_b.status().ToString();
    EXPECT_TRUE(SameModelBits(a, *got_a));
    EXPECT_TRUE(SameModelBits(b, *got_b));
    EXPECT_EQ(reopened.Get("c").status().code(), StatusCode::kNotFound);
  }
  {
    ModelRegistry registry(options);
    ASSERT_TRUE(registry.Put(c).ok());
  }
  ModelRegistry reborn(options);
  auto got_c = reborn.Get("c");
  ASSERT_TRUE(got_c.ok()) << got_c.status().ToString();
  EXPECT_TRUE(SameModelBits(c, *got_c));
}

// Rewriting keywords makes dead records; once they outweigh the live
// ones a Put compacts the log. Models stay bit-identical through every
// compaction and a restart, and the log never exceeds twice the live
// bytes plus the record being appended.
TEST(ModelRegistry, CompactionKeepsModelsAndBoundsTheLog) {
  RegistryOptions options;
  options.num_shards = 3;
  options.max_resident_bytes = 2 * MakeModel("kw0", 0.0).ResidentBytes();
  options.spill_dir = TempDirFor("registry_compact");
  const std::string log = LogPathIn(options.spill_dir);
  std::map<std::string, ServedModel> latest;
  {
    ModelRegistry registry(options);
    for (int round = 0; round < 20; ++round) {
      for (int k = 0; k < 6; ++k) {
        const std::string keyword = "kw" + std::to_string(k);
        const ServedModel model = MakeModel(keyword, round * 10.0 + k);
        ASSERT_TRUE(registry.Put(model).ok());
        latest.insert_or_assign(keyword, model);
        uint64_t live = 0;
        for (const auto& [name, m] : latest) {
          live += RecordBytes(m);
        }
        EXPECT_LE(std::filesystem::file_size(log),
                  2 * live + RecordBytes(model))
            << "round " << round << " keyword " << keyword;
      }
    }
    for (const auto& [keyword, model] : latest) {
      auto got = registry.Get(keyword);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameModelBits(model, *got)) << keyword;
    }
  }
  EXPECT_EQ(FilesIn(options.spill_dir),
            std::vector<std::string>{kSpillLogName});
  ModelRegistry reborn(options);
  for (const auto& [keyword, model] : latest) {
    auto got = reborn.Get(keyword);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(SameModelBits(model, *got)) << keyword;
  }
}

// A full disk fails the Put and changes nothing: the keyword's previous
// model still reloads, and the log still scans after a restart.
TEST(ModelRegistry, AppendFailureKeepsThePreviousModel) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 1;
  options.spill_dir = TempDirFor("registry_enospc");
  const std::string log = LogPathIn(options.spill_dir);
  const ServedModel v1 = MakeModel("kw", 1.0);
  {
    ModelRegistry registry(options);
    ASSERT_TRUE(registry.Put(v1).ok());
    ASSERT_TRUE(registry.Put(MakeModel("other", 5.0)).ok());
    const uint64_t size = std::filesystem::file_size(log);
    FaultInjector::Instance().ArmSite(FaultSite::kIoNoSpace, 0x5eed, 1.0);
    const Status failed = registry.Put(MakeModel("kw", 2.0));
    const Status fresh = registry.Put(MakeModel("fresh", 3.0));
    FaultInjector::Instance().Disarm();
    EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
    EXPECT_NE(failed.message().find(log), std::string::npos)
        << failed.ToString();
    EXPECT_EQ(fresh.code(), StatusCode::kIoError) << fresh.ToString();
    EXPECT_EQ(std::filesystem::file_size(log), size);
    auto got = registry.Get("kw");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(SameModelBits(v1, *got));
    EXPECT_EQ(registry.Get("fresh").status().code(), StatusCode::kNotFound);
  }
  ModelRegistry reborn(options);
  auto got = reborn.Get("kw");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameModelBits(v1, *got));
  EXPECT_TRUE(reborn.Get("other").ok());
}

// A compaction that fails (here at the rename) leaves the old log serving
// every model and no temp file behind; the Puts that triggered it succeed.
TEST(ModelRegistry, FailedCompactionKeepsTheOldLogServing) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 1;
  options.spill_dir = TempDirFor("registry_compact_fail");
  const std::string log = LogPathIn(options.spill_dir);
  const ServedModel b = MakeModel("b", 0.5);
  {
    ModelRegistry registry(options);
    ASSERT_TRUE(registry.Put(MakeModel("a", 0.0)).ok());
    ASSERT_TRUE(registry.Put(b).ok());
    FaultInjector::Instance().ArmSite(FaultSite::kIoRenameFailure, 0x5eed,
                                      1.0);
    for (int i = 1; i <= 10; ++i) {
      EXPECT_TRUE(registry.Put(MakeModel("a", i)).ok());
    }
    const uint64_t attempts =
        FaultInjector::Instance().fired(FaultSite::kIoRenameFailure);
    FaultInjector::Instance().Disarm();
    EXPECT_GT(attempts, 0u) << "no compaction was attempted";
    // After a failure the next attempt waits until the log has doubled,
    // instead of rewriting every live record on each of the eight Puts
    // that found dead bytes outweighing live ones.
    EXPECT_LE(attempts, 2u);
    // Without a compaction the log holds all twelve records.
    EXPECT_GT(std::filesystem::file_size(log),
              2 * (RecordBytes(MakeModel("a", 10.0)) + RecordBytes(b)));
    EXPECT_EQ(FilesIn(options.spill_dir),
              std::vector<std::string>{kSpillLogName});
    auto got_a = registry.Get("a");
    auto got_b = registry.Get("b");
    ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
    ASSERT_TRUE(got_b.ok()) << got_b.status().ToString();
    EXPECT_TRUE(SameModelBits(MakeModel("a", 10.0), *got_a));
    EXPECT_TRUE(SameModelBits(b, *got_b));
  }
  ModelRegistry reborn(options);
  auto got_a = reborn.Get("a");
  ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
  EXPECT_TRUE(SameModelBits(MakeModel("a", 10.0), *got_a));
}

// durable_spill fsyncs the log before Put returns: a failing fsync fails
// the Put and leaves the previous model serving. Compaction and restart
// work the same as without it.
TEST(ModelRegistry, DurableSpillSyncsBeforePutReturns) {
  RegistryOptions options;
  options.num_shards = 1;
  options.max_resident_bytes = 1;
  options.durable_spill = true;
  options.spill_dir = TempDirFor("registry_durable");
  const ServedModel v1 = MakeModel("kw", 1.0);
  const ServedModel other = MakeModel("other", 9.0);
  {
    ModelRegistry registry(options);
    ASSERT_TRUE(registry.Put(v1).ok());
    ASSERT_TRUE(registry.Put(other).ok());
    FaultInjector::Instance().ArmExact(FaultSite::kIoFsyncFailure, 0);
    const Status failed = registry.Put(MakeModel("kw", 2.0));
    FaultInjector::Instance().Disarm();
    EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
    auto got = registry.Get("kw");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(SameModelBits(v1, *got));
    // Enough rewrites of one keyword to compact the log.
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(registry.Put(MakeModel("kw", 10.0 + i)).ok());
    }
    EXPECT_LE(std::filesystem::file_size(LogPathIn(options.spill_dir)),
              3 * (RecordBytes(v1) + RecordBytes(other)));
  }
  ModelRegistry reborn(options);
  auto got = reborn.Get("kw");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameModelBits(MakeModel("kw", 15.0), *got));
  auto got_other = reborn.Get("other");
  ASSERT_TRUE(got_other.ok()) << got_other.status().ToString();
  EXPECT_TRUE(SameModelBits(other, *got_other));
}

// One registry at a time owns a spill directory: a second one opened over
// it reports the lock and refuses to write, leaving the first unharmed.
TEST(ModelRegistry, SecondRegistryOnTheSameSpillDirIsRefused) {
  RegistryOptions options;
  options.spill_dir = TempDirFor("registry_locked");
  ModelRegistry first(options);
  ASSERT_TRUE(first.open_status().ok()) << first.open_status().ToString();
  ASSERT_TRUE(first.Put(MakeModel("a", 1.0)).ok());
  {
    ModelRegistry second(options);
    EXPECT_EQ(second.open_status().code(), StatusCode::kFailedPrecondition)
        << second.open_status().ToString();
    EXPECT_EQ(second.Put(MakeModel("b", 2.0)).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(second.Get("a").status().code(),
              StatusCode::kFailedPrecondition);
  }
  auto got = first.Get("a");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameModelBits(MakeModel("a", 1.0), *got));
}

// A spill log of another version is refused at open, naming both
// versions, and is left as it was. Version 1 records wrapped a whole
// snapshot file; this build reads only version 2.
TEST(ModelRegistry, VersionOneSpillLogIsRefusedAtOpen) {
  RegistryOptions options;
  options.spill_dir = TempDirFor("registry_version_one");
  const std::string log = LogPathIn(options.spill_dir);
  std::vector<uint8_t> bytes = {'D', 'S', 'P', 'O', 'T', 'R', 'G', 'L',
                                1,   0,   0,   0};
  const std::vector<uint8_t> record = EncodeSpillRecord(MakeModel("a", 1.0));
  bytes.insert(bytes.end(), record.begin(), record.end());
  AppendBytes(log, bytes);
  ModelRegistry registry(options);
  const Status& status = registry.open_status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(log + ": unsupported spill log version 1 "
                                        "(this build reads version 2)"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(registry.Put(MakeModel("b", 2.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Get("a").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(std::filesystem::file_size(log), bytes.size());
}

// Regression (review): Put appends under the shard lock, so a concurrent
// Get miss on the same keyword never reads a half-written record (a torn
// record surfaces as DataLoss, which kRefit treats as a hard error), and
// racing Puts leave the resident model and the index agreeing on one
// winner. Every rewrite of "hot" leaves a dead record, so the writer also
// drives a compaction every few Puts while the reader reloads.
TEST(ModelRegistry, ConcurrentPutAndReloadNeverObserveTornSpill) {
  RegistryOptions options;
  options.num_shards = 1;
  options.spill_dir = TempDirFor("registry_torn");
  options.max_resident_bytes = 1;  // cache-of-one: evictions are constant
  ModelRegistry registry(options);
  ASSERT_TRUE(registry.Put(MakeModel("hot", 0.0)).ok());

  std::atomic<bool> writer_failed{false};
  std::atomic<bool> reader_failed{false};
  std::thread writer([&] {
    for (int i = 1; i <= 100; ++i) {
      // The evictor Put pushes "hot" out, forcing the reader onto the
      // reload-from-log path while "hot" is being rewritten.
      if (!registry.Put(MakeModel("hot", static_cast<double>(i))).ok() ||
          !registry.Put(MakeModel("evictor", 0.5)).ok()) {
        writer_failed.store(true);
        return;
      }
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 300; ++i) {
      if (!registry.Get("hot").ok()) {
        reader_failed.store(true);
        return;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(writer_failed.load());
  EXPECT_FALSE(reader_failed.load()) << "Get observed a torn or missing "
                                        "record during concurrent Puts";
  auto got = registry.Get("hot");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameModelBits(MakeModel("hot", 100.0), *got));
  // Compactions kept the log near its two live records, and their temp
  // files never leak.
  const uint64_t live = RecordBytes(MakeModel("hot", 100.0)) +
                        RecordBytes(MakeModel("evictor", 0.5));
  EXPECT_LE(std::filesystem::file_size(LogPathIn(options.spill_dir)),
            3 * live);
  EXPECT_EQ(FilesIn(options.spill_dir),
            std::vector<std::string>{kSpillLogName});
}

// ---------------------------------------------------------------------------
// ServeEngine

TEST(ServeEngine, FitForecastAndScoreRoundTrip) {
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  options.num_threads = 1;
  ServeEngine engine(&registry, options);

  ServeRequest fit;
  fit.id = 1;
  fit.op = ServeOp::kFit;
  fit.keyword = "grammy";
  fit.values = TestSeries(64, 0.0);
  ServeReply fit_reply = engine.Call(fit);
  ASSERT_TRUE(fit_reply.status.ok()) << fit_reply.status.ToString();
  EXPECT_EQ(fit_reply.id, 1u);
  EXPECT_GT(fit_reply.rmse, 0.0);
  EXPECT_GT(fit_reply.cost_bits, 0.0);
  EXPECT_TRUE(registry.Resident("grammy"));

  ServeRequest forecast;
  forecast.id = 2;
  forecast.op = ServeOp::kForecast;
  forecast.keyword = "grammy";
  forecast.horizon = 12;
  ServeReply forecast_reply = engine.Call(forecast);
  ASSERT_TRUE(forecast_reply.status.ok()) << forecast_reply.status.ToString();
  ASSERT_EQ(forecast_reply.values.size(), 12u);
  for (double v : forecast_reply.values) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(forecast_reply.rmse, fit_reply.rmse);

  ServeRequest score;
  score.id = 3;
  score.op = ServeOp::kOutlierScore;
  score.keyword = "grammy";
  score.values = TestSeries(64, 0.0);
  // Plant a fresh spike the model has not seen.
  score.values[40] += 500.0;
  ServeReply score_reply = engine.Call(score);
  ASSERT_TRUE(score_reply.status.ok()) << score_reply.status.ToString();
  ASSERT_EQ(score_reply.values.size(), 64u);
  // The planted spike must dominate every other tick's score.
  double top = 0.0;
  size_t top_tick = 0;
  for (size_t t = 0; t < score_reply.values.size(); ++t) {
    if (std::abs(score_reply.values[t]) > top) {
      top = std::abs(score_reply.values[t]);
      top_tick = t;
    }
  }
  EXPECT_EQ(top_tick, 40u);
  EXPECT_GT(top, 3.0);
}

TEST(ServeEngine, RejectsMalformedRequests) {
  ModelRegistry registry(RegistryOptions{});
  ServeEngine engine(&registry, ServeOptions{});

  ServeRequest no_values;
  no_values.id = 1;
  no_values.op = ServeOp::kFit;
  no_values.keyword = "x";
  EXPECT_EQ(engine.Call(no_values).status.code(),
            StatusCode::kInvalidArgument);

  ServeRequest zero_horizon;
  zero_horizon.id = 2;
  zero_horizon.op = ServeOp::kForecast;
  zero_horizon.keyword = "x";
  zero_horizon.horizon = 0;
  EXPECT_EQ(engine.Call(zero_horizon).status.code(),
            StatusCode::kInvalidArgument);

  ServeRequest unknown_model;
  unknown_model.id = 3;
  unknown_model.op = ServeOp::kForecast;
  unknown_model.keyword = "never-fit";
  unknown_model.horizon = 4;
  EXPECT_EQ(engine.Call(unknown_model).status.code(), StatusCode::kNotFound);
}

TEST(ServeEngine, RefitWarmStartsAndFallsBackToCold) {
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  ServeEngine engine(&registry, options);

  // Refit with no stored model is a cold fit, not an error.
  ServeRequest refit;
  refit.id = 1;
  refit.op = ServeOp::kRefit;
  refit.keyword = "meme";
  refit.values = TestSeries(64, 0.5);
  ServeReply cold = engine.Call(refit);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(registry.Resident("meme"));

  // Refit on a longer window warm-starts from the stored model.
  refit.id = 2;
  refit.values = TestSeries(80, 0.5);
  ServeReply warm = engine.Call(refit);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  auto stored = registry.Get("meme");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->fit_ticks, 80u);

  // Refit on a SHORTER window cannot warm-start (the stored fit covers
  // more ticks than the data) and must fall back to a cold fit.
  refit.id = 3;
  refit.values = TestSeries(48, 0.5);
  ServeReply shrunk = engine.Call(refit);
  ASSERT_TRUE(shrunk.status.ok()) << shrunk.status.ToString();
  stored = registry.Get("meme");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->fit_ticks, 48u);
}

/// For its scope, lowers the soft RLIMIT_NOFILE and fills the descriptor
/// table up to it, so any open() fails with EMFILE.
class FdExhaustion {
 public:
  FdExhaustion() {
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) {
      return;
    }
    rlimit low = saved_;
    low.rlim_cur = std::min<rlim_t>(saved_.rlim_cur, 256);
    if (::setrlimit(RLIMIT_NOFILE, &low) != 0) {
      return;
    }
    restore_ = true;
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        exhausted_ = errno == EMFILE;
        break;
      }
      fds_.push_back(fd);
    }
  }
  ~FdExhaustion() {
    for (const int fd : fds_) {
      ::close(fd);
    }
    if (restore_) {
      ::setrlimit(RLIMIT_NOFILE, &saved_);
    }
  }
  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;

  bool exhausted() const { return exhausted_; }

 private:
  rlimit saved_{};
  bool restore_ = false;
  bool exhausted_ = false;
  std::vector<int> fds_;
};

// Regression: a reload used to open the model's spill file, and every
// failure to open — EMFILE included — read as "never Put". A server at its
// descriptor limit then answered NotFound for stored models, and a refit
// cold-fitted over the warm model. Reloads now read from the log's open
// descriptor, so a refit under EMFILE warm-starts exactly as it would
// with descriptors to spare.
TEST(ServeEngine, RefitWarmStartsWhenDescriptorsAreExhausted) {
  RegistryOptions registry_options;
  registry_options.num_shards = 1;
  registry_options.max_resident_bytes = 1;
  registry_options.spill_dir = TempDirFor("serve_emfile");
  ModelRegistry registry(registry_options);
  ServeOptions options;
  options.num_threads = 1;
  ServeEngine engine(&registry, options);

  ServeRequest fit;
  fit.id = 1;
  fit.op = ServeOp::kFit;
  fit.keyword = "meme";
  fit.values = TestSeries(64, 0.5);
  ASSERT_TRUE(engine.Call(fit).status.ok());
  auto fitted = registry.Get("meme");
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  ServeRequest refit = fit;
  refit.id = 2;
  refit.op = ServeOp::kRefit;
  refit.values = TestSeries(80, 0.5);
  // What a warm start from the stored model must produce.
  auto expected = RefitGlobalSequence(Series(std::vector<double>(refit.values)),
                                      0, 1, *fitted, options.fit);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ServeReply warm;
  {
    ASSERT_TRUE(registry.Put(MakeModel("evictor", 1.0)).ok());
    ASSERT_FALSE(registry.Resident("meme"));
    const FdExhaustion no_fds;
    ASSERT_TRUE(no_fds.exhausted());
    auto reloaded = registry.Get("meme");
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_TRUE(SameModelBits(*fitted, *reloaded));
    ASSERT_TRUE(registry.Put(MakeModel("evictor", 2.0)).ok());
    ASSERT_FALSE(registry.Resident("meme"));
    warm = engine.Call(refit);
  }
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.rmse, expected->rmse);
  EXPECT_EQ(warm.cost_bits, expected->cost_bits);
  auto stored = registry.Get("meme");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->fit_ticks, 80u);
  EXPECT_EQ(stored->params.beta, expected->params.beta);
  EXPECT_EQ(stored->params.population, expected->params.population);
}

// A record the log no longer holds (truncated behind the registry) is a
// located DataLoss, and a refit of its keyword replies with that error
// instead of cold-fitting over the model.
TEST(ServeEngine, RefitOfATruncatedRecordRepliesDataLoss) {
  RegistryOptions registry_options;
  registry_options.num_shards = 1;
  registry_options.max_resident_bytes = 1;
  registry_options.spill_dir = TempDirFor("serve_truncated_log");
  ModelRegistry registry(registry_options);
  ServeOptions options;
  options.num_threads = 1;
  ServeEngine engine(&registry, options);
  const ServedModel meme = MakeModel("meme", 1.0);
  const ServedModel evictor = MakeModel("evictor", 2.0);
  ASSERT_TRUE(registry.Put(meme).ok());
  ASSERT_TRUE(registry.Put(evictor).ok());
  ASSERT_FALSE(registry.Resident("meme"));
  const std::string log = LogPathIn(registry_options.spill_dir);
  const uint64_t offset = std::filesystem::file_size(log) -
                          RecordBytes(evictor) - RecordBytes(meme);
  std::filesystem::resize_file(log, offset + RecordBytes(meme) / 2);

  auto got = registry.Get("meme");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(got.status().message().find(log), std::string::npos)
      << got.status().ToString();
  EXPECT_NE(
      got.status().message().find("offset " + std::to_string(offset)),
      std::string::npos)
      << got.status().ToString();

  ServeRequest refit;
  refit.id = 1;
  refit.op = ServeOp::kRefit;
  refit.keyword = "meme";
  refit.values = TestSeries(80, 0.5);
  const ServeReply reply = engine.Call(refit);
  EXPECT_EQ(reply.status.code(), StatusCode::kDataLoss)
      << reply.status.ToString();
  EXPECT_FALSE(registry.Resident("meme"));
}

TEST(ServeEngine, ShedsOldestRequestWhenQueueOverflows) {
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  options.num_threads = 1;
  options.queue_cap = 2;
  options.max_batch = 1;
  ServeEngine engine(&registry, options);

  // Occupy the dispatcher with a slow cold fit so later submissions pile
  // up deterministically; wait until the fit is IN FLIGHT (dequeued into
  // a batch), or the burst below could shed the fit itself.
  ServeRequest slow;
  slow.id = 100;
  slow.op = ServeOp::kFit;
  slow.keyword = "slow";
  slow.values = TestSeries(1024, 0.1);
  std::future<ServeReply> slow_future = engine.Submit(slow);
  while (engine.stats().batches < 1) {
    std::this_thread::yield();
  }

  // With the dispatcher busy and cap 2: r1, r2 queue; r3 sheds r1; r4
  // sheds r2.
  std::vector<std::future<ServeReply>> futures;
  for (uint64_t i = 1; i <= 4; ++i) {
    ServeRequest forecast;
    forecast.id = i;
    forecast.op = ServeOp::kForecast;
    forecast.keyword = "slow";
    forecast.horizon = 4;
    futures.push_back(engine.Submit(forecast));
  }
  ServeReply r1 = futures[0].get();
  ServeReply r2 = futures[1].get();
  EXPECT_EQ(r1.status.code(), StatusCode::kResourceExhausted)
      << r1.status.ToString();
  EXPECT_EQ(r2.status.code(), StatusCode::kResourceExhausted)
      << r2.status.ToString();
  EXPECT_NE(r1.status.message().find("admission queue full"),
            std::string::npos);
  // The shed reply still carries the SHED request's id.
  EXPECT_EQ(r1.id, 1u);
  EXPECT_EQ(r2.id, 2u);
  // The surviving requests complete normally once the fit finishes.
  EXPECT_TRUE(slow_future.get().status.ok());
  EXPECT_TRUE(futures[2].get().status.ok());
  EXPECT_TRUE(futures[3].get().status.ok());
  EXPECT_EQ(engine.stats().admission_rejects, 2u);
}

TEST(ServeEngine, TenantQuotaShedsOnlyTheFloodingTenant) {
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  options.num_threads = 1;
  options.queue_cap = 16;
  options.max_batch = 1;
  options.tenant_quota = 2;
  ServeEngine engine(&registry, options);

  // Same dispatcher-busy setup as the global shed test: a slow cold fit
  // must be IN FLIGHT before the bursts below, or they could shed it.
  ServeRequest slow;
  slow.id = 100;
  slow.op = ServeOp::kFit;
  slow.keyword = "slow";
  slow.values = TestSeries(1024, 0.1);
  std::future<ServeReply> slow_future = engine.Submit(slow);
  while (engine.stats().batches < 1) {
    std::this_thread::yield();
  }

  // The flooding tenant submits 4 with a quota of 2: f3 sheds f1, f4
  // sheds f2 — all inside the tenant, with room to spare in the queue.
  std::vector<std::future<ServeReply>> flood;
  for (uint64_t i = 1; i <= 4; ++i) {
    ServeRequest forecast;
    forecast.id = i;
    forecast.op = ServeOp::kForecast;
    forecast.keyword = "slow";
    forecast.horizon = 4;
    forecast.tenant = "flood";
    flood.push_back(engine.Submit(forecast));
  }
  // A fair tenant's pair queues untouched alongside the flood.
  std::vector<std::future<ServeReply>> fair;
  for (uint64_t i = 10; i <= 11; ++i) {
    ServeRequest forecast;
    forecast.id = i;
    forecast.op = ServeOp::kForecast;
    forecast.keyword = "slow";
    forecast.horizon = 4;
    forecast.tenant = "fair";
    fair.push_back(engine.Submit(forecast));
  }

  ServeReply f1 = flood[0].get();
  ServeReply f2 = flood[1].get();
  EXPECT_EQ(f1.status.code(), StatusCode::kResourceExhausted)
      << f1.status.ToString();
  EXPECT_EQ(f2.status.code(), StatusCode::kResourceExhausted)
      << f2.status.ToString();
  // The quota shed is named as such, with the tenant in the message.
  EXPECT_NE(f1.status.message().find("tenant 'flood' admission quota full"),
            std::string::npos)
      << f1.status.ToString();
  EXPECT_EQ(f1.id, 1u);
  EXPECT_EQ(f2.id, 2u);

  EXPECT_TRUE(slow_future.get().status.ok());
  EXPECT_TRUE(flood[2].get().status.ok());
  EXPECT_TRUE(flood[3].get().status.ok());
  for (auto& future : fair) {
    EXPECT_TRUE(future.get().status.ok());
  }

  const auto tenants = engine.tenant_stats();
  ASSERT_NE(tenants.find("flood"), tenants.end());
  ASSERT_NE(tenants.find("fair"), tenants.end());
  EXPECT_EQ(tenants.at("flood").submitted, 4u);
  EXPECT_EQ(tenants.at("flood").shed, 2u);
  EXPECT_EQ(tenants.at("flood").completed, 2u);
  EXPECT_EQ(tenants.at("fair").submitted, 2u);
  EXPECT_EQ(tenants.at("fair").shed, 0u);
  EXPECT_EQ(tenants.at("fair").completed, 2u);
}

TEST(ServeEngine, GlobalOverflowShedsTheFullestTenant) {
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  options.num_threads = 1;
  options.queue_cap = 3;
  options.max_batch = 1;
  options.tenant_quota = 3;  // quotas alone do not trip; the CAP does
  ServeEngine engine(&registry, options);

  ServeRequest slow;
  slow.id = 100;
  slow.op = ServeOp::kFit;
  slow.keyword = "slow";
  slow.values = TestSeries(1024, 0.1);
  std::future<ServeReply> slow_future = engine.Submit(slow);
  while (engine.stats().batches < 1) {
    std::this_thread::yield();
  }

  // Queue fills as [a1, a2, b1]; b2 overflows the cap. Tenant a is the
  // fullest (2 > 1), so the victim is a's oldest — a1 — not b's.
  auto submit = [&engine](uint64_t id, const std::string& tenant) {
    ServeRequest forecast;
    forecast.id = id;
    forecast.op = ServeOp::kForecast;
    forecast.keyword = "slow";
    forecast.horizon = 4;
    forecast.tenant = tenant;
    return engine.Submit(forecast);
  };
  std::future<ServeReply> a1 = submit(1, "a");
  std::future<ServeReply> a2 = submit(2, "a");
  std::future<ServeReply> b1 = submit(3, "b");
  std::future<ServeReply> b2 = submit(4, "b");

  ServeReply shed = a1.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted)
      << shed.status.ToString();
  EXPECT_EQ(shed.id, 1u);
  EXPECT_NE(shed.status.message().find("admission queue full"),
            std::string::npos)
      << shed.status.ToString();
  EXPECT_TRUE(slow_future.get().status.ok());
  EXPECT_TRUE(a2.get().status.ok());
  EXPECT_TRUE(b1.get().status.ok());
  EXPECT_TRUE(b2.get().status.ok());
  EXPECT_EQ(engine.tenant_stats().at("a").shed, 1u);
  EXPECT_EQ(engine.tenant_stats().at("b").shed, 0u);
}

TEST(ServeEngine, ZeroQuotaKeepsLegacySingleQueueBehavior) {
  // tenant_quota = 0 must reproduce the pre-quota engine exactly, even
  // for requests that carry tenant labels.
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  options.num_threads = 1;
  options.queue_cap = 2;
  options.max_batch = 1;
  ASSERT_EQ(options.tenant_quota, 0u);  // the default disables slicing
  ServeEngine engine(&registry, options);

  ServeRequest slow;
  slow.id = 100;
  slow.op = ServeOp::kFit;
  slow.keyword = "slow";
  slow.values = TestSeries(1024, 0.1);
  std::future<ServeReply> slow_future = engine.Submit(slow);
  while (engine.stats().batches < 1) {
    std::this_thread::yield();
  }

  // Tenant "v" holds both slots; tenant "w"'s arrival sheds the GLOBAL
  // oldest (v's), because no quota protects per-tenant slices.
  ServeRequest forecast;
  forecast.op = ServeOp::kForecast;
  forecast.keyword = "slow";
  forecast.horizon = 4;
  forecast.id = 1;
  forecast.tenant = "v";
  std::future<ServeReply> v1 = engine.Submit(forecast);
  forecast.id = 2;
  std::future<ServeReply> v2 = engine.Submit(forecast);
  forecast.id = 3;
  forecast.tenant = "w";
  std::future<ServeReply> w1 = engine.Submit(forecast);

  ServeReply shed = v1.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.id, 1u);
  EXPECT_NE(shed.status.message().find("admission queue full"),
            std::string::npos)
      << shed.status.ToString();
  EXPECT_TRUE(slow_future.get().status.ok());
  EXPECT_TRUE(v2.get().status.ok());
  EXPECT_TRUE(w1.get().status.ok());
}

TEST(ServeEngine, SubmitWithCallbackDeliversExactlyOnceOnStop) {
  ModelRegistry registry(RegistryOptions{});
  ServeEngine engine(&registry, ServeOptions{});
  engine.Stop();
  std::atomic<int> calls{0};
  ServeRequest forecast;
  forecast.id = 9;
  forecast.op = ServeOp::kForecast;
  forecast.keyword = "any";
  forecast.horizon = 2;
  engine.SubmitWithCallback(forecast, [&calls](ServeReply reply) {
    EXPECT_EQ(reply.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(reply.id, 9u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ServeEngine, ExpiredDeadlineRejectsBeforeTouchingState) {
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  ServeEngine engine(&registry, options);
  ServeRequest fit;
  fit.id = 7;
  fit.op = ServeOp::kFit;
  fit.keyword = "late";
  fit.values = TestSeries(64, 0.0);
  fit.deadline_ms = 1e-6;  // expires before the dispatcher can run it
  ServeReply reply = engine.Call(fit);
  EXPECT_EQ(reply.status.code(), StatusCode::kDeadlineExceeded)
      << reply.status.ToString();
  // The registry must not have absorbed the abandoned fit.
  EXPECT_FALSE(registry.Resident("late"));
  EXPECT_EQ(engine.stats().deadline_expired, 1u);
}

TEST(ServeEngine, StopCancelsQueuedRequests) {
  ModelRegistry registry(RegistryOptions{});
  ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  ServeEngine engine(&registry, options);
  ServeRequest slow;
  slow.id = 1;
  slow.op = ServeOp::kFit;
  slow.keyword = "slow";
  slow.values = TestSeries(1024, 0.2);
  std::future<ServeReply> slow_future = engine.Submit(slow);
  // Wait until the fit is in flight so the forecast below stays QUEUED
  // (it is the queued request that Stop must cancel).
  while (engine.stats().batches < 1) {
    std::this_thread::yield();
  }
  ServeRequest queued;
  queued.id = 2;
  queued.op = ServeOp::kForecast;
  queued.keyword = "slow";
  queued.horizon = 4;
  std::future<ServeReply> queued_future = engine.Submit(queued);
  engine.Stop();
  EXPECT_EQ(queued_future.get().status.code(), StatusCode::kCancelled);
  // The in-flight fit ran to completion.
  EXPECT_TRUE(slow_future.get().status.ok());
  // Submitting after Stop is refused immediately.
  ServeRequest after;
  after.id = 3;
  after.op = ServeOp::kForecast;
  after.keyword = "slow";
  after.horizon = 4;
  EXPECT_EQ(engine.Call(after).status.code(), StatusCode::kCancelled);
}

// Regression (review): the forecast horizon is an unvalidated u64 off
// the wire; `fit_ticks + horizon` must not wrap size_t (an out-of-bounds
// iterator — UB) or size a near-2^64-byte allocation. One hostile
// ~40-byte frame used to crash the server with bad_alloc.
TEST(ServeEngine, ForecastRejectsOverflowingHorizon) {
  ModelRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.Put(MakeModel("kw", 1.0)).ok());
  ServeEngine engine(&registry, ServeOptions{});
  const uint64_t hostile_horizons[] = {
      kServeMaxForecastTicks + 1,
      std::numeric_limits<uint64_t>::max(),
      // Wraps `64 + horizon` to a tiny total without a pre-add check.
      std::numeric_limits<uint64_t>::max() - 63,
  };
  for (uint64_t horizon : hostile_horizons) {
    ServeRequest request;
    request.id = 1;
    request.op = ServeOp::kForecast;
    request.keyword = "kw";
    request.horizon = horizon;
    ServeReply reply = engine.Call(request);
    EXPECT_EQ(reply.status.code(), StatusCode::kInvalidArgument)
        << "horizon " << horizon << ": " << reply.status.ToString();
    EXPECT_NE(reply.status.message().find("cap"), std::string::npos);
  }
  // A sane horizon against the same model still serves.
  ServeRequest sane;
  sane.id = 2;
  sane.op = ServeOp::kForecast;
  sane.keyword = "kw";
  sane.horizon = 8;
  ServeReply reply = engine.Call(sane);
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.values.size(), 8u);
}

// The other operand of `fit_ticks + horizon` arrives from the spill
// log, which may be hostile: an absurd stored fit range is rejected by
// the same cap instead of overflowing the sum.
TEST(ServeEngine, ForecastRejectsOverlongStoredModel) {
  ModelRegistry registry(RegistryOptions{});
  ServedModel huge = MakeModel("huge", 1.0);
  huge.fit_ticks = std::numeric_limits<uint64_t>::max() - 1;
  ASSERT_TRUE(registry.Put(huge).ok());
  ServeEngine engine(&registry, ServeOptions{});
  ServeRequest request;
  request.id = 9;
  request.op = ServeOp::kForecast;
  request.keyword = "huge";
  request.horizon = 4;
  ServeReply reply = engine.Call(request);
  EXPECT_EQ(reply.status.code(), StatusCode::kInvalidArgument)
      << reply.status.ToString();
  EXPECT_NE(reply.status.message().find("cap"), std::string::npos);
}

// Regression (review): concurrent Stop() calls (e.g. an explicit Stop
// racing the destructor) must not both join the dispatcher thread —
// joining the same std::thread twice is UB. TSan covers the race.
TEST(ServeEngine, ConcurrentStopIsSafe) {
  for (int round = 0; round < 8; ++round) {
    ModelRegistry registry(RegistryOptions{});
    ServeEngine engine(&registry, ServeOptions{});
    std::vector<std::thread> stoppers;
    for (int s = 0; s < 4; ++s) {
      stoppers.emplace_back([&engine] { engine.Stop(); });
    }
    for (std::thread& t : stoppers) {
      t.join();
    }
    // The destructor's Stop() is one more (now idempotent) caller.
  }
}

// The serving acceptance bar: N concurrent clients with mixed
// forecast/refit/outlier traffic against an EVICTING registry produce
// replies bit-identical to a single-threaded serial replay of the
// requests in admission order.
TEST(ServeEngine, ConcurrentMixedWorkloadMatchesSerialReplay) {
  constexpr size_t kClients = 4;
  constexpr size_t kKeywords = 6;
  constexpr size_t kRequestsPerClient = 24;
  constexpr size_t kTicks = 64;

  RegistryOptions registry_options;
  registry_options.num_shards = 2;
  registry_options.spill_dir = TempDirFor("serve_concurrent_spill");
  // Budget for roughly half the keyword set, so eviction churn is real.
  registry_options.max_resident_bytes =
      3 * MakeModel("sizing", 0.0).ResidentBytes();
  ModelRegistry registry(registry_options);

  ServeOptions serve_options;
  serve_options.num_threads = 4;
  serve_options.max_batch = 8;
  ServeEngine engine(&registry, serve_options);

  // Admission happens inside Submit, under the engine's lock. A client
  // that submits and logs under `log_mu` therefore logs in admission
  // order; it waits for its reply outside the lock.
  std::mutex log_mu;
  std::vector<ServeRequest> log;

  // Phase 1: fit every keyword (serially, so the mixed phase always finds
  // a model).
  for (size_t kw = 0; kw < kKeywords; ++kw) {
    ServeRequest fit;
    fit.id = kw;
    fit.op = ServeOp::kFit;
    fit.keyword = "kw" + std::to_string(kw);
    fit.values = TestSeries(kTicks, 0.1 * static_cast<double>(kw));
    log.push_back(fit);
    ASSERT_TRUE(engine.Call(fit).status.ok());
  }

  // Phase 2: concurrent clients, each issuing a deterministic mix keyed
  // by (client, step). Each client waits for its reply before its next
  // request, so admission order is a race — whatever order wins is the
  // order of the log.
  std::vector<std::map<uint64_t, ServeReply>> replies(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &engine, &replies, &log_mu, &log] {
      for (size_t step = 0; step < kRequestsPerClient; ++step) {
        const uint64_t id = 1000 + c * 1000 + step;
        const size_t kw = (c * 7 + step * 3) % kKeywords;
        ServeRequest request;
        request.id = id;
        request.keyword = "kw" + std::to_string(kw);
        const size_t dice = (c + step) % 10;
        if (dice < 7) {
          request.op = ServeOp::kForecast;
          request.horizon = 8;
        } else if (dice < 9) {
          request.op = ServeOp::kOutlierScore;
          request.values = TestSeries(kTicks, 0.1 * static_cast<double>(kw));
        } else {
          request.op = ServeOp::kRefit;
          request.values =
              TestSeries(kTicks + 8, 0.1 * static_cast<double>(kw));
        }
        std::future<ServeReply> reply;
        {
          std::lock_guard<std::mutex> lock(log_mu);
          reply = engine.Submit(request);
          log.push_back(std::move(request));
        }
        replies[c][id] = reply.get();
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  ASSERT_EQ(log.size(), kKeywords + kClients * kRequestsPerClient);
  const RegistryStats concurrent_stats = registry.stats();
  EXPECT_GT(concurrent_stats.evictions, 0u)
      << "budget did not force eviction churn; the test lost its point";
  EXPECT_GT(concurrent_stats.reloads, 0u);

  // Serial replay of the same log on a fresh engine at 1 thread.
  RegistryOptions replay_registry_options = registry_options;
  replay_registry_options.spill_dir = TempDirFor("serve_replay_spill");
  ModelRegistry replay_registry(replay_registry_options);
  ServeOptions replay_options;
  replay_options.num_threads = 1;
  ServeEngine replay_engine(&replay_registry, replay_options);
  std::map<uint64_t, ServeReply> replayed;
  for (const ServeRequest& request : log) {
    replayed[request.id] = replay_engine.Call(request);
  }

  // Every concurrent reply must be bit-identical to its replayed twin.
  size_t compared = 0;
  for (const auto& client_replies : replies) {
    for (const auto& [id, reply] : client_replies) {
      const auto it = replayed.find(id);
      ASSERT_NE(it, replayed.end()) << "id " << id << " missing from replay";
      const ServeReply& twin = it->second;
      EXPECT_EQ(EncodeReplyPayload(reply), EncodeReplyPayload(twin))
          << "reply for id " << id << " diverged between the concurrent run "
          << "and the serial replay";
      ++compared;
    }
  }
  EXPECT_EQ(compared, kClients * kRequestsPerClient);
}

// ---------------------------------------------------------------------------
// Wire protocol

/// One frame holding `payload`, as AppendFrame writes it.
std::vector<uint8_t> FrameOf(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  EXPECT_TRUE(AppendFrame(payload, &frame).ok());
  return frame;
}

TEST(ServeProtocol, RequestFrameRoundTrips) {
  ServeRequest request;
  request.id = 77;
  request.op = ServeOp::kRefit;
  request.keyword = "royal wedding";
  request.values = {1.5, 2.5, -3.25};
  request.horizon = 9;
  request.deadline_ms = 125.0;
  const std::vector<uint8_t> frame = FrameOf(EncodeRequestPayload(request));
  FrameAssembler assembler("test");
  assembler.Append(frame.data(), frame.size());
  std::vector<uint8_t> payload;
  auto have = assembler.Next(&payload);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(*have);
  auto decoded = DecodeRequestPayload(payload.data(), payload.size(), "test");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->op, request.op);
  EXPECT_EQ(decoded->keyword, request.keyword);
  EXPECT_EQ(decoded->values, request.values);
  EXPECT_EQ(decoded->horizon, request.horizon);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  // And the stream ends on a frame boundary, not inside a frame.
  auto more = assembler.Next(&payload);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_FALSE(*more);
  EXPECT_TRUE(assembler.Finish().ok()) << assembler.Finish().ToString();
}

TEST(ServeProtocol, ReplyFrameRoundTripsIncludingErrorStatus) {
  ServeReply reply;
  reply.id = 13;
  reply.status = Status::ResourceExhausted("queue full");
  reply.values = {0.25, 0.75};
  reply.rmse = 1.5;
  reply.cost_bits = 99.0;
  const std::vector<uint8_t> frame = FrameOf(EncodeReplyPayload(reply));
  FrameAssembler assembler("test");
  assembler.Append(frame.data(), frame.size());
  std::vector<uint8_t> payload;
  auto have = assembler.Next(&payload);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(*have);
  auto decoded = DecodeReplyPayload(payload.data(), payload.size(), "test");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, reply.id);
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "queue full");
  EXPECT_EQ(decoded->values, reply.values);
  EXPECT_EQ(decoded->rmse, reply.rmse);
  EXPECT_EQ(decoded->cost_bits, reply.cost_bits);
  EXPECT_TRUE(assembler.Finish().ok()) << assembler.Finish().ToString();
}

TEST(ServeProtocol, RejectsTruncatedAndHostileFrames) {
  ServeRequest request;
  request.id = 1;
  request.op = ServeOp::kForecast;
  request.keyword = "x";
  request.horizon = 2;
  const std::vector<uint8_t> bytes = FrameOf(EncodeRequestPayload(request));
  std::vector<uint8_t> payload;

  // Truncated payload, then a truncated length prefix: the assembler waits
  // for more bytes, and end of input there is a located DataLoss.
  for (const size_t keep : {bytes.size() - 3, size_t{2}}) {
    FrameAssembler assembler("test");
    assembler.Append(bytes.data(), keep);
    auto have = assembler.Next(&payload);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    EXPECT_FALSE(*have);
    const Status end = assembler.Finish();
    EXPECT_EQ(end.code(), StatusCode::kDataLoss) << end.ToString();
    EXPECT_NE(end.message().find("test: byte 0: " + std::to_string(keep) +
                                 " trailing bytes form an incomplete frame"),
              std::string::npos)
        << end.ToString();
  }
  // A reply frame fed to the request decoder trips the tag check.
  {
    ServeReply reply;
    reply.id = 1;
    const std::vector<uint8_t> wrong_kind = FrameOf(EncodeReplyPayload(reply));
    FrameAssembler assembler("test");
    assembler.Append(wrong_kind.data(), wrong_kind.size());
    auto have = assembler.Next(&payload);
    ASSERT_TRUE(have.ok() && *have) << have.status().ToString();
    auto decoded = DecodeRequestPayload(payload.data(), payload.size(), "test");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(decoded.status().message().find("tag"), std::string::npos);
  }
  // A declared frame length beyond the cap is rejected before allocating.
  {
    const std::vector<uint8_t> hostile(4, 0xFF);
    FrameAssembler assembler("test");
    assembler.Append(hostile.data(), hostile.size());
    auto have = assembler.Next(&payload);
    ASSERT_FALSE(have.ok());
    EXPECT_EQ(have.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(have.status().message().find("cap"), std::string::npos);
  }
  // An unknown op code inside a well-formed frame is InvalidArgument.
  {
    ServeRequest bad_op = request;
    bad_op.op = static_cast<ServeOp>(99);
    const std::vector<uint8_t> frame = FrameOf(EncodeRequestPayload(bad_op));
    FrameAssembler assembler("test");
    assembler.Append(frame.data(), frame.size());
    auto have = assembler.Next(&payload);
    ASSERT_TRUE(have.ok() && *have) << have.status().ToString();
    auto decoded = DecodeRequestPayload(payload.data(), payload.size(), "test");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

// Regression (review): the writer must refuse a payload over the frame
// cap instead of emitting a frame every reader rejects as DataLoss (or,
// past 4 GiB, silently truncating the u32 length prefix and
// desynchronizing the whole stream).
TEST(ServeProtocol, WriteFrameRejectsPayloadOverCap) {
  ServeReply reply;
  reply.id = 5;
  reply.values.assign(kServeMaxFrameBytes / 8 + 1, 0.5);
  std::vector<uint8_t> buffer = FrameOf(EncodeReplyPayload(ServeReply()));
  const std::vector<uint8_t> before = buffer;
  const Status status = AppendFrame(EncodeReplyPayload(reply), &buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("cap"), std::string::npos);
  // Nothing reached the buffer: a rejected frame leaves no partial bytes.
  EXPECT_EQ(buffer, before);
}

}  // namespace
}  // namespace dspot
