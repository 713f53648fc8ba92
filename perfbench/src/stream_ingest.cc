// stream_ingest: the `dspot_cli stream --wal-dir` path. A tick-stream event
// CSV (a quiet tail of ~100k keywords plus 64 hot keywords with a burst) is
// replayed with ForEachEventCsv into DurableEngine::Append (WAL on, fsync
// on flush), flushing every 16 ticks of stream time; then
// DurableEngine::Open recovers the engine from the WAL.
//
// End-to-end metrics: latency_ms is the mean Flush() latency, the forecast
// publication lag, averaged per CSV and then over the CSVs (a pass has
// only a few flushes of very different kinds, so their median would flip
// between kinds, and the median of a few passes would hang on one draw);
// throughput_per_s is the median over passes of CSV rows per second
// through append + flushes (ingest_rows_per_s).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datagen/tick_stream.h"
#include "durable/durable_engine.h"
#include "harness.h"
#include "obs/metrics.h"
#include "quantile.h"
#include "snapshot/codec.h"
#include "stream/stream_engine.h"
#include "tensor/event_log.h"

namespace perfbench {
namespace {

constexpr int64_t kFlushEvery = 16;
/// Every kSampleEvery-th append is timed for the durable.append metrics.
constexpr size_t kSampleEvery = 16;
/// Event streams (CSV files) drawn from the seed.
constexpr size_t kStreams = 3;

struct StreamShape {
  dspot::TickStreamConfig ticks;
  size_t threads = 3;  // flush workers; the ingest thread makes four
};

dspot::DurableOptions Options(const StreamShape& shape) {
  dspot::DurableOptions options;
  options.stream.ring_capacity = 128;
  options.stream.min_fit_ticks = 32;
  options.stream.refit_interval = 32;
  options.stream.forecast_horizon = 16;
  options.stream.num_threads = shape.threads;
  options.fsync_policy = dspot::FsyncPolicy::kOnFlush;
  // The whole run stays in the WAL tail, so recovery replays all of it.
  options.checkpoint_every_flushes = 0;
  options.max_wal_bytes = 0;
  return options;
}

struct PassOutcome {
  bool ok = false;
  size_t rows = 0;
  double wall_s = 0.0;
  std::vector<double> flush_ms;
  std::vector<double> append_ns;  // sampled, when requested
  double recover_ms = 0.0;
  uint64_t replayed_appends = 0;
  bool recovered_identical = false;
  uint32_t state_crc = 0;
  size_t forecasts = 0;
  double forecast_read_ns = 0.0;  // mean ForecastInto over every keyword
  dspot::StreamStats stats;
};

/// One replay of the CSV into a fresh WAL directory, then (if `recover`)
/// recovery from that WAL.
PassOutcome ReplayPass(const std::string& csv, const std::string& wal_dir,
                       const dspot::DurableOptions& options,
                       bool sample_appends, bool recover) {
  PassOutcome out;
  auto opened = dspot::DurableEngine::Open(wal_dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: durable open: %s\n",
                 opened.status().ToString().c_str());
    return out;
  }
  std::unique_ptr<dspot::DurableEngine> engine = std::move(*opened);
  const auto flush = [&]() -> dspot::Status {
    const Clock::time_point f0 = Clock::now();
    auto report = engine->Flush();
    out.flush_ms.push_back(MsSince(f0));
    return report.status();
  };

  int64_t last_bucket = -1;
  const Clock::time_point t0 = Clock::now();
  dspot::Status replay = dspot::ForEachEventCsv(
      csv, dspot::CsvReadOptions(),
      [&](const dspot::EventRecord& r) -> dspot::Status {
        const int64_t bucket = r.timestamp / kFlushEvery;
        if (last_bucket >= 0 && bucket > last_bucket) {
          DSPOT_RETURN_IF_ERROR(flush());
        }
        last_bucket = bucket;
        ++out.rows;
        if (sample_appends && out.rows % kSampleEvery == 0) {
          const Clock::time_point a0 = Clock::now();
          dspot::Status s =
              engine->Append(r.keyword, r.location, r.timestamp, r.count);
          out.append_ns.push_back(MsSince(a0) * 1e6);
          return s;
        }
        return engine->Append(r.keyword, r.location, r.timestamp, r.count);
      });
  if (replay.ok()) replay = flush();
  out.wall_s = SecondsSince(t0);
  if (!replay.ok()) {
    std::fprintf(stderr, "perfbench: replay: %s\n", replay.ToString().c_str());
    return out;
  }
  const dspot::StreamEngine& live = engine->engine();
  out.stats = live.stats();
  // The read path: every keyword's published forecast through ForecastInto.
  std::vector<double> horizon(options.stream.forecast_horizon);
  int64_t start_tick = 0;
  const Clock::time_point q0 = Clock::now();
  for (size_t k = 0; k < live.num_keywords(); ++k) {
    if (live.ForecastInto(k, horizon, &start_tick).ok()) ++out.forecasts;
  }
  out.forecast_read_ns =
      MsSince(q0) * 1e6 / static_cast<double>(std::max<size_t>(
                              live.num_keywords(), 1));
  const std::vector<uint8_t> state = live.EncodeState();
  out.state_crc = dspot::Crc32(state.data(), state.size());
  engine.reset();  // closes the WAL, as a process exit would
  if (!recover) {
    out.ok = true;
    return out;
  }

  const Clock::time_point r0 = Clock::now();
  auto recovered = dspot::DurableEngine::Open(wal_dir, options);
  out.recover_ms = MsSince(r0);
  if (!recovered.ok()) {
    std::fprintf(stderr, "perfbench: recovery: %s\n",
                 recovered.status().ToString().c_str());
    return out;
  }
  out.replayed_appends = (*recovered)->recovery().replayed_appends;
  out.recovered_identical = (*recovered)->engine().EncodeState() == state;
  out.ok = true;
  return out;
}

/// Replays the CSVs in rotation until `seconds` have passed, at least
/// `min_passes` times: passes[i] is of csvs[i % size]. Each pass gets a
/// fresh WAL directory inside `scratch`. Only the first pass recovers:
/// recovery re-runs every flush's fits, and skipping it in later passes
/// fits more ingest passes into the run.
std::vector<PassOutcome> Replay(const ScratchDir& scratch,
                                const std::vector<std::string>& csvs,
                                const dspot::DurableOptions& options,
                                double seconds, size_t min_passes,
                                bool sample_appends) {
  std::vector<PassOutcome> passes;
  const Clock::time_point t0 = Clock::now();
  while (passes.size() < min_passes || SecondsSince(t0) < seconds) {
    ScratchDir wal(scratch.path(), "wal");
    if (!wal.ok()) break;
    passes.push_back(ReplayPass(csvs[passes.size() % csvs.size()], wal.path(),
                                options, sample_appends,
                                /*recover=*/passes.empty()));
    if (!passes.back().ok) break;
  }
  return passes;
}

double MeanFlushMs(const PassOutcome& p) {
  double total = 0.0;
  for (const double ms : p.flush_ms) total += ms;
  return p.flush_ms.empty() ? 0.0
                            : total / static_cast<double>(p.flush_ms.size());
}

void Account(const std::vector<PassOutcome>& passes, Result* result) {
  for (const PassOutcome& p : passes) {
    result->Attempt(p.rows + p.flush_ms.size(),
                    p.ok ? p.stats.rejected + p.stats.refit_errors : 1);
  }
}

}  // namespace

void RunStreamIngest(const Args& args, Result* result) {
  StreamShape shape;
  shape.ticks.num_keywords = 100064;  // 64 hot + a 100k quiet tail
  shape.ticks.hot_keywords = 64;
  shape.ticks.num_ticks = 96;
  shape.ticks.quiet_ticks = 8;  // below min_fit_ticks: append path only
  shape.ticks.burst_start = 48;
  shape.ticks.burst_width = 4;
  if (args.smoke) {
    shape.ticks.num_keywords = 1008;
    shape.ticks.hot_keywords = 8;
    shape.ticks.num_ticks = 64;
    shape.threads = 2;
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "stream %zu keywords (%zu hot) x %zu ticks, flush every %lld "
                "ticks, %zu flush threads",
                shape.ticks.num_keywords, shape.ticks.hot_keywords,
                shape.ticks.num_ticks, static_cast<long long>(kFlushEvery),
                shape.threads);
  result->Note(line);
  result->SetThreads("ingest=1 flush=" + std::to_string(shape.threads));

  ScratchDir scratch(args.work_dir, "stream");
  if (!scratch.ok()) {
    result->Gate(false, "scratch directory");
    return;
  }
  // Set-up: writing the event CSVs, one per stream drawn from the seed
  // (the hot keywords' counts, and so their refits, differ by draw; passes
  // rotate through the CSVs so a run measures more than one draw); the
  // median write time is setup_s.
  std::vector<double> setup_s;
  std::vector<std::string> csvs;
  for (size_t k = 0; k < kStreams; ++k) {
    csvs.push_back(scratch.File("events-" + std::to_string(k) + ".csv"));
    shape.ticks.seed = Mix(args.seed * kStreams + k);
    SyncFilesystem(scratch.path());
    const Clock::time_point t0 = Clock::now();
    const bool written = dspot::WriteTickStreamCsv(shape.ticks, csvs.back());
    setup_s.push_back(SecondsSince(t0));
    if (!written) {
      result->Gate(false, "writing the event CSV");
      return;
    }
  }
  result->SetSetup(setup_s);

  const dspot::DurableOptions options = Options(shape);
  const std::vector<PassOutcome> passes =
      Replay(scratch, csvs, options, args.seconds, kStreams + 1, false);
  Account(passes, result);
  bool ok = !passes.empty();
  bool same_state = true;
  std::vector<double> flush_ms, rows_per_s;
  std::vector<double> csv_flush_ms(kStreams, 0.0), csv_passes(kStreams, 0.0);
  std::string pass_line = "mean flush of each pass (ms):";
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassOutcome& p = passes[i];
    ok = ok && p.ok;
    same_state = same_state && p.state_crc == passes[i % kStreams].state_crc;
    flush_ms.insert(flush_ms.end(), p.flush_ms.begin(), p.flush_ms.end());
    csv_flush_ms[i % kStreams] += MeanFlushMs(p);
    csv_passes[i % kStreams] += 1.0;
    pass_line += " " + std::to_string(MeanFlushMs(p));
    rows_per_s.push_back(static_cast<double>(p.rows) / p.wall_s);
  }
  result->Note(pass_line);
  result->Gate(ok, "every replay pass and recovery completed");
  result->Gate(ok && passes.front().recovered_identical,
               "recovered EncodeState is byte-identical to the live state");
  result->Gate(ok && same_state,
               "every pass of one CSV ends in the same engine state");
  result->Gate(ok && passes.front().forecasts >= shape.ticks.hot_keywords,
               "every hot keyword has a published forecast");
  if (!ok) return;

  const Summary flush = Summarize(&flush_ms);
  // Each CSV's passes averaged, then the CSVs averaged: every draw counts
  // once however many passes it got.
  double latency_ms = 0.0;
  for (size_t k = 0; k < kStreams; ++k) {
    latency_ms += csv_flush_ms[k] / csv_passes[k] / kStreams;
  }
  result->SetEndToEnd("latency_ms", latency_ms);
  result->SetEndToEnd("throughput_per_s", Median(rows_per_s));
  result->SetReport("ingest_rows_per_s", Median(rows_per_s), "1/s");
  result->SetReport("flush_mean_ms", latency_ms, "ms");
  result->SetReport("flush_p50_ms", flush.p50, "ms");
  result->SetReport("flushes", static_cast<double>(flush.count), "count");
  if (flush.tail_pct > 0.0) {
    result->SetReport("flush_p" + std::to_string(static_cast<int>(
                                      flush.tail_pct)) + "_ms",
                      flush.tail, "ms");
  }
  result->SetReport("recover_s", passes.front().recover_ms / 1e3, "s");
  result->SetReport("passes", static_cast<double>(passes.size()), "count");
  result->SetReport("rows_per_pass", static_cast<double>(passes.front().rows),
                    "count");
  std::vector<uint8_t> digests;
  for (size_t k = 0; k < kStreams; ++k) {
    for (int b = 0; b < 4; ++b) {
      digests.push_back(static_cast<uint8_t>(passes[k].state_crc >> (8 * b)));
    }
  }
  result->SetReport("state_digest",
                    dspot::Crc32(digests.data(), digests.size()), "crc32");
  result->SetEndToEnd("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    // tensor.csv: the parse layer alone, a pass with a no-op callback.
    std::vector<double> parse_rows_per_s;
    for (int rep = 0; rep < 3; ++rep) {
      size_t rows = 0;
      const Clock::time_point t0 = Clock::now();
      const dspot::Status s = dspot::ForEachEventCsv(
          csvs.front(), dspot::CsvReadOptions(),
          [&rows](const dspot::EventRecord&) {
            ++rows;
            return dspot::Status::Ok();
          });
      parse_rows_per_s.push_back(static_cast<double>(rows) / SecondsSince(t0));
      result->Gate(s.ok(), "no-op CSV parse pass");
    }
    result->SetLayer("tensor.csv.rows_per_s", Median(parse_rows_per_s));

    dspot::ObsRegistry& obs = dspot::ObsRegistry::Instance();
    obs.Reset();
    dspot::ObsOptions obs_options;
    obs_options.trace = true;
    obs.Enable(obs_options);
    const Clock::time_point t0 = Clock::now();
    // One traced pass: its replay and the recovery that re-runs its flushes.
    const std::vector<PassOutcome> traced =
        Replay(scratch, csvs, options, /*seconds=*/0.0, 1, true);
    const double wall_s = SecondsSince(t0);
    obs.Disable();
    Account(traced, result);
    const dspot::ObsSnapshot snap = obs.Snapshot();
    const std::vector<dspot::TraceEvent> events = obs.TraceEvents();
    bool traced_ok = !traced.empty();
    for (const PassOutcome& p : traced) {
      traced_ok = traced_ok && p.ok && p.state_crc == passes.front().state_crc;
    }
    traced_ok = traced_ok && traced.front().recovered_identical;
    result->Gate(traced_ok, "traced passes match the untraced state");
    if (!traced_ok) return;

    const double n = static_cast<double>(traced.size());
    std::vector<double> append_ns, traced_flush_mean_ms;
    for (const PassOutcome& p : traced) {
      append_ns.insert(append_ns.end(), p.append_ns.begin(),
                       p.append_ns.end());
      traced_flush_mean_ms.push_back(MeanFlushMs(p));
    }
    const Summary append = Summarize(&append_ns);
    result->SetLayer("durable.append.p50_ns", append.p50);
    result->SetLayer("durable.append.tail_ns", append.tail);
    result->SetReport("durable.append.tail_pct", append.tail_pct, "pct");
    result->SetLayer("durable.wal.bytes",
                     static_cast<double>(snap.CounterValue("wal.bytes")) / n);
    result->SetLayer("durable.wal.syncs",
                     static_cast<double>(snap.CounterValue("wal.syncs")) / n);
    result->SetLayer("durable.recover.ms", traced.front().recover_ms);
    result->SetLayer("durable.replayed_appends",
                     static_cast<double>(traced.front().replayed_appends));
    const uint64_t flushes = snap.HistogramCount("stream.flush");
    result->SetLayer("stream.flush.ms",
                     flushes > 0 ? HistogramSumMs(snap, "stream.flush") /
                                       static_cast<double>(flushes)
                                 : 0.0);
    result->SetLayer("stream.forecast_read.ns",
                     traced.front().forecast_read_ns);
    result->SetLayer("stream.cold_fits",
                     static_cast<double>(traced.front().stats.cold_fits));
    result->SetLayer("stream.warm_refits",
                     static_cast<double>(traced.front().stats.warm_refits));
    result->SetLayer("stream.escalations",
                     static_cast<double>(traced.front().stats.escalations));
    result->SetLayer(
        "stream.buffer_bytes",
        static_cast<double>(traced.front().stats.peak_buffer_bytes));
    SetFitLayerMetrics(snap, events, wall_s, shape.threads, n, result);
    result->SetLayer("obs.overhead.latency_ms",
                     Median(traced_flush_mean_ms) -
                         csv_flush_ms[0] / csv_passes[0]);
    WriteTrace(args.work_dir + "/stream_ingest-seed" +
                   std::to_string(args.seed) + ".trace.json",
               result);
  }
}

}  // namespace perfbench
