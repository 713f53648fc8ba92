// dspot_stream: bounded-memory streaming ingestion. The suite covers the
// append hot path's rejection contract (out-of-order, pre-origin, bad
// counts, keyword caps), ring eviction and gap restarts, the triage ladder
// (cold fit -> scheduled warm refit -> burst escalation), lock-free
// forecast reads, and the two determinism oracles the design hangs on:
// bit-identical encoded state at any thread count, and across a
// save/restore cycle mid-stream.

#include "stream/stream_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datagen/tick_stream.h"
#include "guard/guard.h"

namespace dspot {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Small-but-busy streaming options: fits become possible after 32 ticks,
/// scheduled refits every 16, rings hold 64 ticks.
StreamOptions SmallOptions(size_t num_threads = 1) {
  StreamOptions options;
  options.ring_capacity = 64;
  options.min_fit_ticks = 32;
  options.refit_interval = 16;
  options.forecast_horizon = 8;
  options.num_threads = num_threads;
  return options;
}

/// Deterministic quiet activity: a gentle level + wiggle the fit explains
/// well enough that its continuation never trips the 4-sigma burst test.
double QuietCount(int64_t t) {
  return 20.0 + static_cast<double>(t % 5) +
         3.0 * std::sin(static_cast<double>(t) / 7.0);
}

/// Replays `records` into `engine` in order, flushing whenever stream time
/// crosses a `flush_every`-tick boundary (the CLI's cadence), plus once at
/// the end.
void Replay(StreamEngine* engine, const std::vector<TickRecord>& records,
            int64_t flush_every) {
  auto flush = [&]() {
    auto report = engine->Flush();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  };
  int64_t last_bucket = INT64_MIN;
  for (const TickRecord& r : records) {
    const int64_t bucket = r.timestamp / flush_every;
    if (last_bucket != INT64_MIN && bucket > last_bucket) {
      flush();
    }
    last_bucket = bucket;
    Status s = engine->AppendById(r.keyword, r.timestamp, r.count);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  flush();
}

/// The synthetic mixed stream: a few hot keywords with an injected burst,
/// a quiet tail that never reaches min_fit_ticks.
TickStreamConfig MixedConfig() {
  TickStreamConfig config;
  config.num_keywords = 24;
  config.hot_keywords = 4;
  config.num_ticks = 96;
  config.quiet_ticks = 8;
  config.burst_start = 48;
  config.burst_width = 4;
  return config;
}

void InternAll(StreamEngine* engine, const TickStreamConfig& config) {
  for (size_t i = 0; i < config.num_keywords; ++i) {
    auto id = engine->EnsureKeyword(
        TickStreamKeywordName(static_cast<uint32_t>(i)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Append contract

TEST(Stream, AppendRejectsOutOfOrderTimestamps) {
  StreamEngine engine(SmallOptions());
  ASSERT_TRUE(engine.Append("kw", "all", 5, 1.0).ok());
  Status s = engine.Append("kw", "all", 3, 1.0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("out of order"), std::string::npos)
      << s.ToString();
  // Equal timestamps accumulate into the same tick; later ones proceed.
  EXPECT_TRUE(engine.Append("kw", "all", 5, 2.0).ok());
  EXPECT_TRUE(engine.Append("kw", "all", 6, 1.0).ok());
  EXPECT_EQ(engine.stats().rejected, 1u);
  auto window = engine.Window(0);
  ASSERT_TRUE(window.ok());
  EXPECT_DOUBLE_EQ(window->values[0], 3.0);  // 1.0 + 2.0 at tick 5
}

TEST(Stream, AppendRejectsBadCountsAndPreOriginTimestamps) {
  StreamOptions options = SmallOptions();
  options.origin = 100;
  StreamEngine engine(options);
  EXPECT_EQ(engine.Append("kw", "all", 100, std::nan("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Append("kw", "all", 100, -1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Append("kw", "all", 99, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().rejected, 3u);
  EXPECT_TRUE(engine.Append("kw", "all", 100, 1.0).ok());
}

// Regression: INT64_MAX after an origin of -10 overflowed
// `timestamp - origin` into a negative tick. The distance, 2^63 + 9, is
// more than an int64 tick holds, so the append is rejected and counted.
TEST(Stream, AppendRejectsATimestampBeyondTheLargestTick) {
  StreamOptions options = SmallOptions();
  options.origin = -10;
  StreamEngine engine(options);
  const Status s = engine.Append("kw", "all", 9223372036854775807, 1.0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("lies 9223372036854775817 units past the "
                             "stream origin -10"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(engine.stats().rejected, 1u);
  EXPECT_EQ(engine.stats().appends, 0u);
  EXPECT_TRUE(engine.Append("kw", "all", -10, 1.0).ok());
}

TEST(Stream, AppendByIdRejectsUnknownIndex) {
  StreamEngine engine(SmallOptions());
  Status s = engine.AppendById(7, 0, 1.0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("out of range"), std::string::npos);
}

TEST(Stream, EnsureKeywordEnforcesCapAndNonEmptyName) {
  StreamOptions options = SmallOptions();
  options.max_keywords = 2;
  StreamEngine engine(options);
  EXPECT_EQ(engine.EnsureKeyword("").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.EnsureKeyword("a").ok());
  ASSERT_TRUE(engine.EnsureKeyword("b").ok());
  // Existing keywords resolve fine past the cap; new ones are rejected.
  EXPECT_TRUE(engine.EnsureKeyword("a").ok());
  EXPECT_EQ(engine.EnsureKeyword("c").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.num_keywords(), 2u);
}

// ---------------------------------------------------------------------------
// Ring buffer behavior

TEST(Stream, RingEvictsOldestTicksAtCapacity) {
  StreamEngine engine(SmallOptions());  // ring_capacity 64
  for (int64_t t = 0; t < 200; ++t) {
    ASSERT_TRUE(engine.Append("kw", "all", t, static_cast<double>(t)).ok());
  }
  auto window = engine.Window(0);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->start_tick, 200 - 64);
  ASSERT_EQ(window->values.size(), 64u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(window->values[i], static_cast<double>(136 + i));
  }
  EXPECT_EQ(engine.stats().evicted_ticks, 136u);
  // The ring is bounded: well under capacity + forecast-cell overhead.
  EXPECT_LE(engine.stats().buffer_bytes, 64 * sizeof(double) + 1024);
}

TEST(Stream, LargeGapRestartsTheWindowWithZeroFill) {
  StreamEngine engine(SmallOptions());
  for (int64_t t = 0; t < 10; ++t) {
    ASSERT_TRUE(engine.Append("kw", "all", t, 1.0).ok());
  }
  ASSERT_TRUE(engine.Append("kw", "all", 1000, 5.0).ok());
  auto window = engine.Window(0);
  ASSERT_TRUE(window.ok());
  // The whole old window fell off; the new one ends at tick 1000 and the
  // skipped ticks are genuine zeros (the stream reported no activity).
  EXPECT_EQ(window->start_tick, 1001 - 64);
  ASSERT_EQ(window->values.size(), 64u);
  EXPECT_DOUBLE_EQ(window->values[63], 5.0);
  EXPECT_DOUBLE_EQ(window->values[0], 0.0);
  EXPECT_EQ(engine.stats().evicted_ticks, 10u);
}

// ---------------------------------------------------------------------------
// Triage ladder: cold -> warm -> escalate

TEST(Stream, TriageColdFitsThenWarmRefitsThenEscalatesOnBurst) {
  StreamOptions options = SmallOptions();
  options.refit_interval = 8;  // == forecast_horizon, see below
  StreamEngine engine(options);
  ASSERT_TRUE(engine.EnsureKeyword("quiet").ok());
  ASSERT_TRUE(engine.EnsureKeyword("burst").ok());

  // Warm-up on noisy Poisson activity (deterministic seed): both keywords
  // cross min_fit_ticks and the first flush cold-fits them. The noise
  // keeps the fit's residual floor comfortably above zero, which the
  // burst z-score needs for calibration.
  Random rng(7);
  for (int64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(
        engine.AppendById(0, t, static_cast<double>(rng.Poisson(20.0))).ok());
    ASSERT_TRUE(
        engine.AppendById(1, t, static_cast<double>(rng.Poisson(20.0))).ok());
  }
  auto first = engine.Flush();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->keywords_triaged, 2u);
  EXPECT_EQ(first->cold_fits, 2u);
  EXPECT_EQ(first->escalations, 0u);
  EXPECT_TRUE(engine.HasFit(0));
  EXPECT_TRUE(engine.HasFit(1));

  // refit_interval more ticks: "quiet" follows the model's own forecast
  // exactly (zero residual by construction — can never burst), "burst"
  // deviates by hundreds over 4 consecutive ticks.
  auto quiet_path = engine.Forecast(0);
  auto burst_path = engine.Forecast(1);
  ASSERT_TRUE(quiet_path.ok() && burst_path.ok());
  for (int64_t t = 40; t < 48; ++t) {
    const size_t k = static_cast<size_t>(t - 40);
    const double spike = (t >= 42 && t < 46) ? 500.0 : 0.0;
    ASSERT_TRUE(
        engine.AppendById(0, t, std::max(quiet_path->values[k], 0.0)).ok());
    ASSERT_TRUE(
        engine
            .AppendById(1, t, std::max(burst_path->values[k], 0.0) + spike)
            .ok());
  }
  auto second = engine.Flush();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->keywords_triaged, 2u);
  EXPECT_EQ(second->escalations, 1u);  // only the bursting keyword
  EXPECT_EQ(second->warm_refits, 1u);  // the quiet one took maintenance
  EXPECT_EQ(second->cold_fits, 0u);

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.cold_fits, 2u);
  EXPECT_EQ(stats.warm_refits, 1u);
  EXPECT_EQ(stats.escalations, 1u);
}

TEST(Stream, KeywordsBelowMinFitTicksStayUnfitted) {
  StreamEngine engine(SmallOptions());
  for (int64_t t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine.Append("tail", "all", t, 1.0).ok());
  }
  auto report = engine.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->keywords_triaged, 1u);
  EXPECT_EQ(report->cold_fits, 0u);
  EXPECT_FALSE(engine.HasFit(0));
  EXPECT_EQ(engine.Forecast(0).status().code(), StatusCode::kNotFound);
}

TEST(Stream, CleanFlushTriagesNothing) {
  StreamEngine engine(SmallOptions());
  for (int64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(engine.Append("kw", "all", t, QuietCount(t)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  // No appends since the last flush: nothing is dirty, nothing refits.
  auto report = engine.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->keywords_triaged, 0u);
  EXPECT_EQ(report->cold_fits + report->warm_refits + report->escalations, 0u);
}

// ---------------------------------------------------------------------------
// Forecast reads

TEST(Stream, ForecastLifecycleAndShapeChecks) {
  StreamEngine engine(SmallOptions());
  ASSERT_TRUE(engine.EnsureKeyword("kw").ok());
  EXPECT_EQ(engine.Forecast(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Forecast(3).status().code(), StatusCode::kInvalidArgument);

  for (int64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(engine.AppendById(0, t, QuietCount(t)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());

  auto forecast = engine.Forecast(0);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  // The forecast starts directly past the fitted window and spans the
  // configured horizon with finite values.
  EXPECT_EQ(forecast->start_tick, 40);
  ASSERT_EQ(forecast->values.size(), 8u);
  for (const double v : forecast->values) {
    EXPECT_TRUE(std::isfinite(v));
  }

  std::vector<double> wrong(3);
  Status s = engine.ForecastInto(0, wrong, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::vector<double> right(8);
  int64_t start = 0;
  ASSERT_TRUE(engine.ForecastInto(0, right, &start).ok());
  EXPECT_EQ(start, forecast->start_tick);
  for (size_t k = 0; k < right.size(); ++k) {
    EXPECT_DOUBLE_EQ(right[k], forecast->values[k]);
  }
}

TEST(Stream, ConcurrentForecastReadsDuringFlushesAreSafe) {
  // The seqlock surface: one ingest thread appending and flushing (which
  // republishes forecasts), reader threads hammering the lock-free read
  // path the whole time. TSan certifies the absence of data races; the
  // assertions certify that readers only ever observe complete
  // publications (finite values, monotone start ticks).
  StreamOptions options = SmallOptions(2);
  options.refit_interval = 4;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.EnsureKeyword("kw").ok());
  Random rng(11);
  int64_t t = 0;
  for (; t < 40; ++t) {
    ASSERT_TRUE(
        engine.AppendById(0, t, static_cast<double>(rng.Poisson(20.0))).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> good_reads{0};
  std::thread reader([&] {
    std::vector<double> out(8);
    int64_t last_start = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      int64_t start = 0;
      if (!engine.ForecastInto(0, out, &start).ok()) continue;
      bool finite = true;
      for (const double v : out) finite &= std::isfinite(v);
      if (finite && start >= last_start) {
        last_start = start;
        good_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int round = 0; round < 12; ++round) {
    for (int k = 0; k < 4; ++k, ++t) {
      ASSERT_TRUE(
          engine.AppendById(0, t, static_cast<double>(rng.Poisson(20.0)))
              .ok());
    }
    ASSERT_TRUE(engine.Flush().ok());  // republishes through the seqlock
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(good_reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism oracles

TEST(Stream, EncodedStateIsBitIdenticalAcrossThreadCounts) {
  const TickStreamConfig config = MixedConfig();
  const std::vector<TickRecord> records = GenerateTickStream(config);

  StreamEngine serial(SmallOptions(1));
  InternAll(&serial, config);
  Replay(&serial, records, /*flush_every=*/16);

  StreamEngine threaded(SmallOptions(8));
  InternAll(&threaded, config);
  Replay(&threaded, records, /*flush_every=*/16);

  // The streams produced fits (otherwise the oracle is vacuous).
  EXPECT_GT(serial.stats().cold_fits, 0u);
  EXPECT_EQ(serial.EncodeState(), threaded.EncodeState());
}

TEST(Stream, ReplayingTheSameStreamReproducesTheSameState) {
  const TickStreamConfig config = MixedConfig();
  const std::vector<TickRecord> records = GenerateTickStream(config);
  std::vector<uint8_t> states[2];
  for (auto& state : states) {
    StreamEngine engine(SmallOptions());
    InternAll(&engine, config);
    Replay(&engine, records, /*flush_every=*/16);
    state = engine.EncodeState();
  }
  EXPECT_FALSE(states[0].empty());
  EXPECT_EQ(states[0], states[1]);
}

TEST(Stream, SaveRestoreMidStreamConvergesWithTheOriginal) {
  const TickStreamConfig config = MixedConfig();
  const std::vector<TickRecord> records = GenerateTickStream(config);
  // Split mid-burst so the restored engine must carry warm models, dirty
  // flags, and partially-filled rings — not just a clean checkpoint.
  const size_t split = records.size() / 2;

  StreamEngine original(SmallOptions());
  InternAll(&original, config);
  const std::vector<TickRecord> first(records.begin(),
                                      records.begin() + split);
  Replay(&original, first, /*flush_every=*/16);

  const std::string path = TempPath("stream_mid.state");
  ASSERT_TRUE(original.SaveState(path).ok());
  auto restored = StreamEngine::LoadState(path, SmallOptions());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(original.EncodeState(), (*restored)->EncodeState());

  // Both engines absorb the rest of the stream and must stay in lockstep.
  const std::vector<TickRecord> rest(records.begin() + split, records.end());
  Replay(&original, rest, /*flush_every=*/16);
  Replay(restored->get(), rest, /*flush_every=*/16);
  EXPECT_EQ(original.EncodeState(), (*restored)->EncodeState());

  // Forecasts agree too (they are part of the encoded state, but compare
  // through the public read path for good measure).
  for (size_t i = 0; i < original.num_keywords(); ++i) {
    ASSERT_EQ(original.HasFit(i), (*restored)->HasFit(i)) << i;
    if (!original.HasFit(i)) continue;
    auto a = original.Forecast(i);
    auto b = (*restored)->Forecast(i);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->start_tick, b->start_tick);
    for (size_t k = 0; k < a->values.size(); ++k) {
      EXPECT_DOUBLE_EQ(a->values[k], b->values[k]) << i << ":" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Persistence error paths

TEST(Stream, LoadStateReportsMissingFile) {
  auto loaded = StreamEngine::LoadState(TempPath("no_such.state"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// A directory opens but cannot be read. The failed read is an IoError, not
// an empty or foreign file.
TEST(Stream, LoadStateOfADirectoryIsIoError) {
  const std::string dir = TempPath("state_dir");
  std::filesystem::create_directories(dir);
  auto loaded = StreamEngine::LoadState(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("read failed: " + dir),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(Stream, LoadStateRejectsForeignMagic) {
  const std::string path = TempPath("foreign.state");
  std::ofstream os(path, std::ios::binary);
  os << "NOTSTM00" << std::string(64, '\0');
  os.close();
  auto loaded = StreamEngine::LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
}

TEST(Stream, LoadStateDetectsCorruptedPayload) {
  StreamEngine engine(SmallOptions());
  for (int64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(engine.Append("kw", "all", t, QuietCount(t)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  const std::string path = TempPath("corrupt.state");
  ASSERT_TRUE(engine.SaveState(path).ok());

  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(64, std::ios::beg);  // well inside the payload
  const char byte = static_cast<char>(f.get());
  f.seekp(64, std::ios::beg);
  f.put(static_cast<char>(byte ^ 0x5a));  // guaranteed to differ
  f.close();

  auto loaded = StreamEngine::LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

// Every strict prefix of a saved state fails to load with an error that
// names the file: up to the whole magic as not a state file, past it as
// DataLoss at an offset. Each prefix is written as a file of its own, so a
// read past its end is a sanitizer error.
TEST(Stream, LoadStateRejectsEveryTruncation) {
  StreamEngine engine(SmallOptions());
  for (int64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(engine.Append("kw", "all", t, QuietCount(t)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  const std::string path = TempPath("whole.state");
  ASSERT_TRUE(engine.SaveState(path).ok());
  std::ifstream is(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());

  const std::string cut_path = TempPath("truncated.state");
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::ofstream(cut_path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(len));
    auto loaded = StreamEngine::LoadState(cut_path);
    ASSERT_FALSE(loaded.ok()) << "prefix " << len;
    const Status& status = loaded.status();
    EXPECT_EQ(status.code(), len < 8 ? StatusCode::kInvalidArgument
                                     : StatusCode::kDataLoss)
        << "prefix " << len << ": " << status.ToString();
    EXPECT_EQ(status.message().rfind(cut_path + ": ", 0), 0u)
        << status.ToString();
    if (len >= 8) {
      EXPECT_NE(status.message().find(": offset "), std::string::npos)
          << status.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Guard integration

TEST(Stream, FlushHonorsCancellation) {
  StreamOptions options = SmallOptions();
  options.cancel = CancellationToken::Cancellable();
  StreamEngine engine(options);
  for (int64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE(engine.Append("kw", "all", t, QuietCount(t)).ok());
  }
  options.cancel.Cancel();
  auto report = engine.Flush();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(engine.HasFit(0));
}

// Regression (PR 9): a persisted forecast_horizon that fails the
// constructor's invariant (0 here — the constructor normalizes it to 1)
// must be REJECTED with a located InvalidArgument. Before the fix the
// engine was rebuilt with the normalized horizon while the payload's
// forecast cells were sized by the raw value, so every forecast read
// after the first keyword was misaligned.
TEST(Stream, DecodeStateRejectsDenormalizedForecastHorizon) {
  const TickStreamConfig config = MixedConfig();
  StreamEngine engine(SmallOptions());
  InternAll(&engine, config);
  Replay(&engine, GenerateTickStream(config), /*flush_every=*/16);
  std::vector<uint8_t> state = engine.EncodeState();

  // forecast_horizon is the 6th u64 of the options block: bytes [40, 48).
  ASSERT_GE(state.size(), 48u);
  for (size_t i = 40; i < 48; ++i) {
    state[i] = 0;
  }
  auto decoded = StreamEngine::DecodeState(state.data(), state.size(),
                                           SmallOptions(), "patched-state");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find("forecast_horizon"),
            std::string::npos)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find("patched-state"),
            std::string::npos)
      << decoded.status().ToString();

  // The unpatched payload still decodes (the patch, not the codec, is
  // what broke it).
  std::vector<uint8_t> pristine = engine.EncodeState();
  auto ok = StreamEngine::DecodeState(pristine.data(), pristine.size(),
                                      SmallOptions(), "pristine-state");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->EncodeState(), pristine);
}

// The residual-burst threshold and quorum are constants, but the state
// keeps their slots (bytes [48, 64) of the options block). A state that
// carries other values was triaged differently, so decoding refuses it.
TEST(Stream, DecodeStateRejectsOtherResidualBurstConstants) {
  const TickStreamConfig config = MixedConfig();
  StreamEngine engine(SmallOptions());
  InternAll(&engine, config);
  Replay(&engine, GenerateTickStream(config), /*flush_every=*/16);
  const std::vector<uint8_t> pristine = engine.EncodeState();
  ASSERT_GE(pristine.size(), 64u);

  std::vector<uint8_t> threshold = pristine;
  const double five = 5.0;
  std::memcpy(threshold.data() + 48, &five, sizeof(five));
  auto decoded = StreamEngine::DecodeState(
      threshold.data(), threshold.size(), SmallOptions(), "patched-state");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find("residual-burst"),
            std::string::npos)
      << decoded.status().ToString();

  std::vector<uint8_t> quorum = pristine;
  quorum[56] = 3;
  decoded = StreamEngine::DecodeState(quorum.data(), quorum.size(),
                                      SmallOptions(), "patched-state");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status().ToString();
}

}  // namespace
}  // namespace dspot
