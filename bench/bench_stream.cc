// dspot_stream ingestion benchmark: drives a synthetic 100k+ keyword tick
// stream (a long quiet tail plus a small hot head with injected bursts)
// through StreamEngine, measuring the append hot path (p50/p99 latency),
// flush cost, LM work, and peak buffered bytes — then replays the same
// stream at 8 threads and checks the encoded engine state is bit-identical
// to the single-threaded run. A third leg repeats the serial run through
// DurableEngine (write-ahead log on), quantifying the WAL append tax and
// the crash-recovery replay rate. Emits BENCH_stream.json for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/tick_stream.h"
#include "durable/durable_engine.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "stream/stream_engine.h"

namespace dspot {
namespace {

/// Flush cadence in ticks: the engine triages dirty keywords every
/// kFlushEvery ticks of stream time, like a periodic ingest batch.
constexpr int64_t kFlushEvery = 16;

/// Every kSampleEvery-th append is timed individually for the latency
/// percentiles (timing all ~800k appends would measure the clock, not the
/// engine).
constexpr size_t kSampleEvery = 16;

double LmIterations() {
  return static_cast<double>(
      ObsRegistry::Instance().Snapshot().CounterValue("lm.iterations"));
}

struct RunResult {
  bool ok = false;
  double wall_ms = 0.0;
  double flush_ms = 0.0;       ///< total time inside Flush()
  double append_p50_us = 0.0;  ///< quiet-keyword append latency
  double append_p99_us = 0.0;
  double lm_iters = 0.0;
  size_t flushes = 0;
  size_t forecasts = 0;  ///< keywords with a readable forecast at the end
  StreamStats stats;
  std::vector<uint8_t> state;
};

StreamOptions BenchStreamOptions(size_t threads) {
  StreamOptions options;
  options.num_threads = threads;
  options.ring_capacity = 128;
  options.min_fit_ticks = 32;
  options.refit_interval = 32;
  options.forecast_horizon = 16;
  return options;
}

/// Drives the tick stream through `api` (a StreamEngine, or a DurableEngine
/// wrapping one — both expose EnsureKeyword/AppendById/Flush) and reads the
/// final state back from `eng`.
template <typename Api>
RunResult DriveStream(const TickStreamConfig& config, Api& api,
                      StreamEngine& eng) {
  RunResult result;

  // Intern every keyword up front so the hot loop measures AppendById, the
  // allocation-free path a resolved ingest pipeline uses.
  for (size_t i = 0; i < config.num_keywords; ++i) {
    auto interned = api.EnsureKeyword(TickStreamKeywordName(
        static_cast<uint32_t>(i)));
    if (!interned.ok()) {
      std::fprintf(stderr, "intern failed: %s\n",
                   interned.status().ToString().c_str());
      return result;
    }
  }

  ObsRegistry::Instance().Reset();
  std::vector<double> append_us;
  append_us.reserve(config.num_keywords * config.quiet_ticks / kSampleEvery +
                    1024);
  size_t appended = 0;
  int64_t last_flushed_tick = -1;
  bool failed = false;

  const auto t0 = std::chrono::steady_clock::now();
  ForEachStreamTick(config, [&](const TickRecord& r) {
    if (failed) return;
    const int64_t tick = (r.timestamp - config.origin) /
                         std::max<int64_t>(config.ticks_resolution, 1);
    if (tick / kFlushEvery > last_flushed_tick / kFlushEvery &&
        last_flushed_tick >= 0) {
      const auto f0 = std::chrono::steady_clock::now();
      auto report = api.Flush();
      result.flush_ms += ElapsedMs(f0);
      if (!report.ok()) {
        std::fprintf(stderr, "flush failed: %s\n",
                     report.status().ToString().c_str());
        failed = true;
        return;
      }
      ++result.flushes;
    }
    last_flushed_tick = tick;

    Status status;
    const bool quiet = r.keyword >= 64;  // hot head is the first 64 ids
    if (quiet && appended % kSampleEvery == 0) {
      const auto a0 = std::chrono::steady_clock::now();
      status = api.AppendById(r.keyword, r.timestamp, r.count);
      append_us.push_back(ElapsedMs(a0) * 1000.0);
    } else {
      status = api.AppendById(r.keyword, r.timestamp, r.count);
    }
    ++appended;
    if (!status.ok()) {
      std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
      failed = true;
    }
  });
  if (failed) return result;

  const auto f0 = std::chrono::steady_clock::now();
  auto report = api.Flush();
  result.flush_ms += ElapsedMs(f0);
  if (!report.ok()) {
    std::fprintf(stderr, "final flush failed: %s\n",
                 report.status().ToString().c_str());
    return result;
  }
  ++result.flushes;
  result.wall_ms = ElapsedMs(t0);

  // Exercise the O(1) read path on every keyword; count published models.
  std::vector<double> horizon(eng.options().forecast_horizon);
  for (size_t i = 0; i < eng.num_keywords(); ++i) {
    int64_t start = 0;
    if (eng.ForecastInto(i, horizon, &start).ok()) {
      ++result.forecasts;
    }
  }

  result.append_p50_us = bench::Percentile(&append_us, 0.50);
  result.append_p99_us = bench::Percentile(&append_us, 0.99);
  result.lm_iters = LmIterations();
  result.stats = eng.stats();
  result.state = eng.EncodeState();
  result.ok = true;
  return result;
}

RunResult RunStream(const TickStreamConfig& config, size_t threads) {
  StreamEngine engine(BenchStreamOptions(threads));
  return DriveStream(config, engine, engine);
}

RunResult RunStreamWal(const TickStreamConfig& config,
                       const DurableOptions& doptions,
                       const std::string& wal_dir) {
  auto opened = DurableEngine::Open(wal_dir, doptions);
  if (!opened.ok()) {
    std::fprintf(stderr, "durable open failed: %s\n",
                 opened.status().ToString().c_str());
    return RunResult();
  }
  return DriveStream(config, **opened, (*opened)->engine());
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf(
      "%-10s wall %8.1f ms | flush %7.1f ms (%zu) | append p50 %6.2f us "
      "p99 %6.2f us | lm %7.0f | fits c/w/e %zu/%zu/%zu | peak %7.2f MiB | "
      "forecasts %zu\n",
      label, r.wall_ms, r.flush_ms, r.flushes, r.append_p50_us,
      r.append_p99_us, r.lm_iters, static_cast<size_t>(r.stats.cold_fits),
      static_cast<size_t>(r.stats.warm_refits),
      static_cast<size_t>(r.stats.escalations),
      static_cast<double>(r.stats.peak_buffer_bytes) / (1024.0 * 1024.0),
      r.forecasts);
}

void AddRow(bench::BenchJson* json, const char* label, size_t threads,
            const RunResult& r) {
  json->AddRow();
  json->SetRow("label", std::string(label));
  json->SetRow("threads", static_cast<double>(threads));
  json->SetRow("wall_ms", r.wall_ms);
  json->SetRow("flush_ms", r.flush_ms);
  json->SetRow("flushes", static_cast<double>(r.flushes));
  json->SetRow("append_p50_us", r.append_p50_us);
  json->SetRow("append_p99_us", r.append_p99_us);
  json->SetRow("lm_iterations", r.lm_iters);
  json->SetRow("appends", static_cast<double>(r.stats.appends));
  json->SetRow("cold_fits", static_cast<double>(r.stats.cold_fits));
  json->SetRow("warm_refits", static_cast<double>(r.stats.warm_refits));
  json->SetRow("escalations", static_cast<double>(r.stats.escalations));
  json->SetRow("peak_buffer_bytes",
               static_cast<double>(r.stats.peak_buffer_bytes));
  json->SetRow("forecasts", static_cast<double>(r.forecasts));
}

int Main() {
  TickStreamConfig config;
  config.num_keywords = 100064;  // 64 hot + 100k quiet tail
  config.hot_keywords = 64;
  config.num_ticks = 96;
  config.quiet_ticks = 8;  // below min_fit_ticks: pure append path
  config.burst_start = 48;
  config.burst_width = 4;

  std::printf("dspot_stream ingest: %zu keywords (%zu hot), %zu ticks, "
              "flush every %lld ticks\n\n",
              config.num_keywords, config.hot_keywords, config.num_ticks,
              static_cast<long long>(kFlushEvery));
  ObsRegistry::Instance().Enable(ObsOptions());

  const RunResult serial = RunStream(config, /*threads=*/1);
  if (!serial.ok) return 1;
  PrintRun("1 thread", serial);

  const RunResult parallel = RunStream(config, /*threads=*/8);
  if (!parallel.ok) return 1;
  PrintRun("8 threads", parallel);

  // WAL leg: the serial run again, but through DurableEngine with the log
  // on. Auto-checkpointing is disabled so the whole run stays in the WAL
  // tail and the reopen below measures a worst-case full replay.
  const std::string wal_dir = "bench_stream_wal";
  std::system(("rm -rf " + wal_dir).c_str());
  DurableOptions doptions;
  doptions.stream = BenchStreamOptions(/*threads=*/1);
  doptions.fsync_policy = FsyncPolicy::kOnFlush;
  doptions.checkpoint_every_flushes = 0;
  doptions.max_wal_bytes = 0;
  const RunResult wal = RunStreamWal(config, doptions, wal_dir);
  if (!wal.ok) return 1;
  PrintRun("wal 1t", wal);

  const auto r0 = std::chrono::steady_clock::now();
  auto reopened = DurableEngine::Open(wal_dir, doptions);
  const double recovery_ms = ElapsedMs(r0);
  if (!reopened.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t> recovered_state = (*reopened)->engine().EncodeState();
  const uint64_t replayed = (*reopened)->recovery().replayed_appends;
  const double recovery_per_million =
      replayed > 0 ? recovery_ms * 1e6 / static_cast<double>(replayed) : 0.0;
  reopened->reset();
  std::system(("rm -rf " + wal_dir).c_str());

  const bool deterministic =
      serial.state.size() == parallel.state.size() &&
      std::memcmp(serial.state.data(), parallel.state.data(),
                  serial.state.size()) == 0;
  const bool wal_matches =
      serial.state.size() == wal.state.size() &&
      std::memcmp(serial.state.data(), wal.state.data(),
                  serial.state.size()) == 0;
  const bool recovered_matches =
      wal.state.size() == recovered_state.size() &&
      std::memcmp(wal.state.data(), recovered_state.data(),
                  wal.state.size()) == 0;
  std::printf("\nengine state 1 vs 8 threads: %s (%zu bytes)\n",
              deterministic ? "bit-identical" : "DIVERGED",
              serial.state.size());
  std::printf("engine state plain vs WAL-on: %s\n",
              wal_matches ? "bit-identical" : "DIVERGED");
  std::printf("crash recovery: replayed %llu append(s) in %.1f ms "
              "(%.1f ms per million ticks), state %s\n",
              static_cast<unsigned long long>(replayed), recovery_ms,
              recovery_per_million,
              recovered_matches ? "bit-identical" : "DIVERGED");

  bench::BenchJson json("stream");
  json.Set("num_keywords", static_cast<double>(config.num_keywords));
  json.Set("hot_keywords", static_cast<double>(config.hot_keywords));
  json.Set("wall_ms", parallel.wall_ms);
  json.Set("append_p50_us", parallel.append_p50_us);
  json.Set("append_p99_us", parallel.append_p99_us);
  json.Set("peak_buffer_bytes",
           static_cast<double>(parallel.stats.peak_buffer_bytes));
  json.Set("lm_iterations", parallel.lm_iters);
  json.Set("threads", 8.0);
  json.Set("deterministic", deterministic ? 1.0 : 0.0);
  json.Set("wal_append_p50_us", wal.append_p50_us);
  json.Set("wal_append_p99_us", wal.append_p99_us);
  json.Set("wal_wall_ms", wal.wall_ms);
  json.Set("wal_state_matches", wal_matches ? 1.0 : 0.0);
  json.Set("recovery_ms", recovery_ms);
  json.Set("recovery_ms_per_million_ticks", recovery_per_million);
  json.Set("recovered_state_matches", recovered_matches ? 1.0 : 0.0);
  AddRow(&json, "serial", 1, serial);
  AddRow(&json, "parallel", 8, parallel);
  AddRow(&json, "wal", 1, wal);
  if (json.WriteTo("BENCH_stream.json")) {
    std::printf("wrote BENCH_stream.json\n");
  }
  return (deterministic && wal_matches && recovered_matches) ? 0 : 1;
}

}  // namespace
}  // namespace dspot

int main() { return dspot::Main(); }
