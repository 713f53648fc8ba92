// dspot_cli — command-line front end for the DSPOT library.
//
// Subcommands:
//   scenarios                             list built-in synthetic scenarios
//   generate  --scenario NAME --output F  write a synthetic tensor (CSV)
//             [--ticks N] [--locations L] [--outliers K] [--seed S]
//             [--series]                  write the global sequence instead
//   fit       --series F                  fit one sequence (CSV from
//             [--forecast H]              SaveSeriesCsv / "tick,value")
//             [--forecast-output F]
//             [--save-model F]            write a model snapshot after the
//             [--model-json]              fit (binary unless --model-json)
//             [--threads T]               T >= 1; default: hardware conc.
//             [--time-budget-ms MS]       deadline; partial fit on expiry
//             [--skip-bad-rows]           tolerate malformed CSV rows
//             [--metrics-json F]          write an obs metrics snapshot
//             [--trace-out F]             write a Chrome trace-event file
//   fit-tensor --input F                  fit a full tensor (long-form CSV)
//             [--outliers-for KEYWORD]
//             [--save-model F]            write a model snapshot after the
//             [--model-json]              fit (binary unless --model-json)
//             [--threads T]               T >= 1; default: hardware conc.
//             [--time-budget-ms MS]       deadline; partial fit on expiry
//             [--skip-bad-keywords]       fit what fits, report the rest
//             [--skip-bad-rows]           tolerate malformed CSV rows
//             [--metrics-json F]          write an obs metrics snapshot
//             [--trace-out F]             write a Chrome trace-event file
//   refit     --model F                   refit a saved model on (new)
//             --series F | --input F      data, warm-starting GLOBALFIT
//             [--cold]                    from the snapshot; --cold forces
//             [--save-model F]            the full multi-start MDL search
//             [--model-json]              for comparison
//             [--threads T] [--time-budget-ms MS] [--skip-bad-rows]
//             [--metrics-json F] [--trace-out F]
//   update    --model F --input F         absorb newly appended ticks into
//             [--append F]                a saved model: --input spans the
//             [--save-model F]            original range (plus any new
//             [--model-json]              ticks); --append concatenates a
//             [--threads T]               second tensor's ticks after it.
//             [--time-budget-ms MS]       Shock re-detection runs only for
//             [--skip-bad-rows]           keywords whose appended window
//             [--metrics-json F]          bursts against the old model.
//             [--trace-out F]
//   stream    --events F                  replay a raw event log (CSV
//             [--resolution N] [--origin T]  "keyword,location,timestamp
//             [--flush-every N]           [,count]") through the streaming
//             [--ring N] [--horizon H]    engine: appends in arrival order,
//             [--threads T]               flushes (triage + incremental
//             [--flush-budget-ms MS]      refits) every N ticks of stream
//             [--load-state F]            time, prints the final forecasts.
//             [--save-state F]            --load/--save-state resume and
//             [--forecast KEYWORD]        persist the engine across runs
//             [--skip-bad-rows]           without refitting.
//             [--metrics-json F]
//             [--trace-out F]
//             [--wal-dir D]               durable mode: appends and flushes
//             [--fsync-policy P]          go through a write-ahead log in D
//             [--recover]                 (P: never|flush|everyn); opening
//                                         an existing D recovers the newest
//                                         checkpoint + WAL tail. --recover
//                                         alone reports the recovered state
//                                         without requiring --events.
//
// Flags accept both "--key value" and "--key=value". Numeric flags are
// parsed strictly: empty values, trailing garbage ("12x"), and
// out-of-range magnitudes are usage errors, never silently zero. An
// unknown flag or a stray positional argument is a usage error too.
//
// Exit code 0 on success, 1 on any error (message on stderr). A fit cut
// short by --time-budget-ms still exits 0: the partial model is usable
// and the health line says "DeadlineExceeded".

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "core/dspot.h"
#include "durable/durable_engine.h"
#include "durable/durable_file.h"
#include "core/outliers.h"
#include "core/report.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "kernels/calendar.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"
#include "snapshot/update.h"
#include "stream/stream_engine.h"
#include "tensor/event_log.h"
#include "tensor/tensor_io.h"
#include "timeseries/metrics.h"

namespace dspot {
namespace {

/// Shared handling of --metrics-json / --trace-out on the fit commands.
/// Arms the observation layer before the fit when either flag is present
/// (so the spans cover the whole pipeline), and writes the requested
/// exports afterwards.
struct ObsExportRequest {
  std::string metrics_path;
  std::string trace_path;

  static ObsExportRequest FromFlags(const Flags& flags) {
    ObsExportRequest request;
    request.metrics_path = flags.GetString("--metrics-json");
    request.trace_path = flags.GetString("--trace-out");
    if (!request.metrics_path.empty() || !request.trace_path.empty()) {
      ObsOptions options;
      options.trace = !request.trace_path.empty();
      ObsRegistry::Instance().Enable(options);
    }
    return request;
  }

  int Write() const {
    if (!metrics_path.empty()) {
      if (Status s = WriteMetricsJson(metrics_path); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      if (Status s = WriteChromeTrace(trace_path); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
    }
    return 0;
  }
};

/// Shared handling of --save-model / --model-json on the fitting
/// commands: writes `snapshot` to the requested path (binary unless
/// --model-json), or does nothing when the flag is absent.
int SaveModelIfRequested(const Flags& flags, const ModelSnapshot& snapshot) {
  const std::string path = flags.GetString("--save-model");
  if (path.empty()) {
    return 0;
  }
  const bool json = flags.Has("--model-json");
  const SnapshotFormat format =
      json ? SnapshotFormat::kJson : SnapshotFormat::kBinary;
  if (Status s = SaveSnapshot(snapshot, path, format); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s model snapshot to %s\n", json ? "JSON" : "binary",
              path.c_str());
  return 0;
}

/// Loads the snapshot named by --model, printing usage/errors on failure.
StatusOr<ModelSnapshot> LoadModelFlag(const Flags& flags) {
  const std::string path = flags.GetString("--model");
  if (path.empty()) {
    return Status::InvalidArgument("--model FILE is required");
  }
  return LoadSnapshot(path);
}

std::map<std::string, KeywordScenario> ScenarioCatalog() {
  std::map<std::string, KeywordScenario> catalog;
  for (const KeywordScenario& sc : TrendingKeywordSuite()) {
    catalog[sc.name] = sc;
  }
  catalog[HashtagAppleScenario().name] = HashtagAppleScenario();
  catalog[HashtagBackToSchoolScenario().name] = HashtagBackToSchoolScenario();
  catalog[Meme3Scenario().name] = Meme3Scenario();
  catalog[Meme16Scenario().name] = Meme16Scenario();
  return catalog;
}

int CmdScenarios() {
  std::printf("built-in scenarios:\n");
  for (const auto& [name, sc] : ScenarioCatalog()) {
    std::printf("  %-22s %zu event(s)%s\n", name.c_str(), sc.shocks.size(),
                sc.growth_start != kNpos ? " + growth effect" : "");
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const std::string name = flags.GetString("--scenario");
  const std::string output = flags.GetString("--output");
  if (name.empty() || output.empty()) {
    std::fprintf(stderr,
                 "usage: dspot_cli generate --scenario NAME --output FILE "
                 "[--ticks N] [--locations L] [--outliers K] [--seed S] "
                 "[--series]\n");
    return 1;
  }
  const auto catalog = ScenarioCatalog();
  const auto it = catalog.find(name);
  if (it == catalog.end()) {
    std::fprintf(stderr, "unknown scenario '%s' (try: dspot_cli scenarios)\n",
                 name.c_str());
    return 1;
  }
  int64_t seed = 0, ticks = 0, locations = 0, outliers = 0;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (!flags.ParseInt("--seed", 42, std::numeric_limits<int64_t>::min(),
                      kMax, &seed) ||
      !flags.ParseInt("--ticks", 575, 1, kMax, &ticks) ||
      !flags.ParseInt("--locations", 20, 1, kMax, &locations) ||
      !flags.ParseInt("--outliers", 3, 0, kMax, &outliers)) {
    return 1;
  }
  GeneratorConfig config = GoogleTrendsConfig(static_cast<uint64_t>(seed));
  config.n_ticks = static_cast<size_t>(ticks);
  config.num_locations = static_cast<size_t>(locations);
  config.num_outlier_locations = static_cast<size_t>(outliers);

  if (flags.Has("--series")) {
    auto series = GenerateGlobalSequence(it->second, config);
    if (!series.ok()) {
      std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
      return 1;
    }
    if (Status s = SaveSeriesCsv(*series, output); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu-tick series to %s\n", series->size(),
                output.c_str());
    return 0;
  }
  auto generated = GenerateTensor({it->second}, config);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  if (Status s = SaveTensorCsv(generated->tensor, output); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zux%zux%zu tensor to %s\n",
              generated->tensor.num_keywords(),
              generated->tensor.num_locations(),
              generated->tensor.num_ticks(), output.c_str());
  return 0;
}

/// Prints the pipeline FitHealth (and, when interrupted, a reminder that
/// the model is partial) after a fit.
void PrintHealth(const FitHealth& health) {
  std::printf("fit health: %s\n", health.ToString().c_str());
  if (health.interrupted()) {
    std::printf("note: the time budget ran out; this is the best partial "
                "model found in time\n");
  }
}

int CmdFit(const Flags& flags) {
  const std::string input = flags.GetString("--series");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: dspot_cli fit --series FILE [--forecast H] "
                 "[--forecast-output FILE] [--threads T>=1] "
                 "[--time-budget-ms MS>=0] [--skip-bad-rows] "
                 "[--metrics-json FILE] [--trace-out FILE]\n");
    return 1;
  }
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t threads = 0, time_budget_ms = 0, horizon = 0;
  // --threads must be >= 1 when given: an explicit 0 is almost always a
  // mangled value (atol("bad") was 0), and "auto" is spelled by omitting
  // the flag. Leaving it out still selects hardware concurrency.
  if (!flags.ParseInt("--threads", 0, 1, kMax, &threads) ||
      !flags.ParseInt("--time-budget-ms", 0, 0, kMax, &time_budget_ms) ||
      !flags.ParseInt("--forecast", 0, 0, kMax, &horizon)) {
    return 1;
  }
  CsvReadOptions read_options;
  read_options.skip_bad_rows = flags.Has("--skip-bad-rows");
  size_t skipped_rows = 0;
  read_options.skipped_rows = &skipped_rows;
  auto series = LoadSeriesCsv(input, read_options);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }
  if (skipped_rows > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed row(s) in %s\n",
                 skipped_rows, input.c_str());
  }
  DspotOptions options;
  // 0 = hardware concurrency; the fit is bit-identical at any setting.
  options.num_threads = static_cast<size_t>(threads);
  options.time_budget_ms = static_cast<double>(time_budget_ms);
  const ObsExportRequest obs_export = ObsExportRequest::FromFlags(flags);
  auto fit = FitDspotSingle(*series, options);
  if (!fit.ok()) {
    std::fprintf(stderr, "%s\n", fit.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", RenderReport(fit->params).c_str());
  std::printf("\nfit RMSE %.3f over %zu ticks; MDL total %.0f bits\n",
              fit->global_rmse[0], series->size(), fit->total_cost_bits);
  PrintHealth(fit->health);
  ModelSnapshot snapshot;
  snapshot.params = fit->params;
  snapshot.keywords = {"series"};
  snapshot.locations = {"global"};
  snapshot.global_rmse = fit->global_rmse;
  snapshot.total_cost_bits = fit->total_cost_bits;
  snapshot.health = fit->health;
  if (const int rc = SaveModelIfRequested(flags, snapshot); rc != 0) {
    return rc;
  }
  if (const int rc = obs_export.Write(); rc != 0) {
    return rc;
  }

  if (horizon > 0) {
    auto forecast =
        ForecastGlobal(fit->params, 0, static_cast<size_t>(horizon));
    if (!forecast.ok()) {
      std::fprintf(stderr, "%s\n", forecast.status().ToString().c_str());
      return 1;
    }
    const std::string out = flags.GetString("--forecast-output");
    if (!out.empty()) {
      if (Status s = SaveSeriesCsv(*forecast, out); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote %" PRId64 "-tick forecast to %s\n", horizon,
                  out.c_str());
    } else {
      std::printf("\nforecast (%" PRId64 " ticks):\n", horizon);
      for (size_t t = 0; t < forecast->size(); ++t) {
        std::printf("%zu,%.3f\n", series->size() + t, (*forecast)[t]);
      }
    }
  }
  return 0;
}

int CmdFitTensor(const Flags& flags) {
  const std::string input = flags.GetString("--input");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: dspot_cli fit-tensor --input FILE "
                 "[--outliers-for KEYWORD] [--threads T>=1] "
                 "[--time-budget-ms MS>=0] [--skip-bad-keywords] "
                 "[--skip-bad-rows] [--metrics-json FILE] "
                 "[--trace-out FILE]\n");
    return 1;
  }
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t threads = 0, time_budget_ms = 0;
  if (!flags.ParseInt("--threads", 0, 1, kMax, &threads) ||
      !flags.ParseInt("--time-budget-ms", 0, 0, kMax, &time_budget_ms)) {
    return 1;
  }
  CsvReadOptions read_options;
  read_options.skip_bad_rows = flags.Has("--skip-bad-rows");
  size_t skipped_rows = 0;
  read_options.skipped_rows = &skipped_rows;
  auto tensor =
      LoadTensorCsv(input, /*fill_absent_with_zero=*/true, read_options);
  if (!tensor.ok()) {
    std::fprintf(stderr, "%s\n", tensor.status().ToString().c_str());
    return 1;
  }
  if (skipped_rows > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed row(s) in %s\n",
                 skipped_rows, input.c_str());
  }
  DspotOptions options;
  // 0 = hardware concurrency; the fit is bit-identical at any setting.
  options.num_threads = static_cast<size_t>(threads);
  options.time_budget_ms = static_cast<double>(time_budget_ms);
  if (flags.Has("--skip-bad-keywords")) {
    options.global.on_keyword_error = KeywordErrorPolicy::kSkipAndReport;
  }
  const ObsExportRequest obs_export = ObsExportRequest::FromFlags(flags);
  auto result = FitDspot(*tensor, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", RenderReport(result->params, tensor->keywords()).c_str());
  std::printf("\nper-keyword fit RMSE:\n");
  for (size_t i = 0; i < tensor->num_keywords(); ++i) {
    const bool failed = i < result->keyword_status.size() &&
                        !result->keyword_status[i].ok();
    if (failed) {
      std::printf("  %-20s SKIPPED (%s)\n", tensor->keywords()[i].c_str(),
                  result->keyword_status[i].ToString().c_str());
    } else {
      std::printf("  %-20s %.3f\n", tensor->keywords()[i].c_str(),
                  result->global_rmse[i]);
    }
  }
  PrintHealth(result->health);
  if (const int rc =
          SaveModelIfRequested(flags, MakeSnapshot(*result, *tensor));
      rc != 0) {
    return rc;
  }
  if (const int rc = obs_export.Write(); rc != 0) {
    return rc;
  }

  const std::string outlier_kw = flags.GetString("--outliers-for");
  if (!outlier_kw.empty()) {
    const size_t i = tensor->KeywordIndex(outlier_kw);
    if (i == kNpos) {
      std::fprintf(stderr, "unknown keyword '%s'\n", outlier_kw.c_str());
      return 1;
    }
    auto reactions = ScoreLocationReactions(result->params, i);
    if (!reactions.ok()) {
      std::fprintf(stderr, "%s\n", reactions.status().ToString().c_str());
      return 1;
    }
    std::printf("\nlocation reactions for '%s':\n", outlier_kw.c_str());
    for (const LocationReaction& r : *reactions) {
      std::printf("  %-8s participation %.2f zero-frac %.2f %s\n",
                  tensor->locations()[r.location].c_str(),
                  r.participation_ratio, r.zero_fraction,
                  r.is_outlier ? "OUTLIER" : "");
    }
  }
  return 0;
}

int CmdAggregate(const Flags& flags) {
  const std::string input = flags.GetString("--events");
  const std::string output = flags.GetString("--output");
  if (input.empty() || output.empty()) {
    std::fprintf(stderr,
                 "usage: dspot_cli aggregate --events FILE --output FILE "
                 "[--resolution N] [--origin T] [--skip-bad-rows]\n");
    return 1;
  }
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t resolution = 0, origin = 0;
  if (!flags.ParseInt("--resolution", 1, 1, kMax, &resolution) ||
      !flags.ParseInt("--origin", 0, std::numeric_limits<int64_t>::min(),
                      kMax, &origin)) {
    return 1;
  }
  AggregationConfig config;
  config.ticks_resolution = resolution;
  config.origin = origin;
  CsvReadOptions read_options;
  read_options.skip_bad_rows = flags.Has("--skip-bad-rows");
  size_t skipped_rows = 0;
  read_options.skipped_rows = &skipped_rows;
  auto tensor = LoadAndAggregateEventsCsv(input, config, read_options);
  if (!tensor.ok()) {
    std::fprintf(stderr, "%s\n", tensor.status().ToString().c_str());
    return 1;
  }
  if (skipped_rows > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed row(s) in %s\n",
                 skipped_rows, input.c_str());
  }
  if (Status s = SaveTensorCsv(*tensor, output); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("aggregated into %zux%zux%zu tensor -> %s\n",
              tensor->num_keywords(), tensor->num_locations(),
              tensor->num_ticks(), output.c_str());
  return 0;
}

int CmdRefit(const Flags& flags) {
  const std::string series_path = flags.GetString("--series");
  const std::string tensor_path = flags.GetString("--input");
  if ((series_path.empty() == tensor_path.empty()) ||
      !flags.HasValue("--model")) {
    std::fprintf(stderr,
                 "usage: dspot_cli refit --model FILE "
                 "(--series FILE | --input FILE) [--cold] "
                 "[--save-model FILE] [--model-json] [--threads T>=1] "
                 "[--time-budget-ms MS>=0] [--skip-bad-rows] "
                 "[--metrics-json FILE] [--trace-out FILE]\n");
    return 1;
  }
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t threads = 0, time_budget_ms = 0;
  if (!flags.ParseInt("--threads", 0, 1, kMax, &threads) ||
      !flags.ParseInt("--time-budget-ms", 0, 0, kMax, &time_budget_ms)) {
    return 1;
  }
  auto model = LoadModelFlag(flags);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  CsvReadOptions read_options;
  read_options.skip_bad_rows = flags.Has("--skip-bad-rows");
  size_t skipped_rows = 0;
  read_options.skipped_rows = &skipped_rows;

  DspotOptions options;
  options.num_threads = static_cast<size_t>(threads);
  options.time_budget_ms = static_cast<double>(time_budget_ms);
  const bool cold = flags.Has("--cold");
  if (!cold) {
    options.global.warm_start = &model->params;
  }
  const ObsExportRequest obs_export = ObsExportRequest::FromFlags(flags);

  StatusOr<DspotResult> fit = Status::Internal("unreachable");
  std::vector<std::string> keywords;
  std::vector<std::string> locations;
  if (!series_path.empty()) {
    auto series = LoadSeriesCsv(series_path, read_options);
    if (!series.ok()) {
      std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
      return 1;
    }
    keywords = {"series"};
    locations = {"global"};
    fit = FitDspotSingle(*series, options);
  } else {
    auto tensor = LoadTensorCsv(tensor_path, /*fill_absent_with_zero=*/true,
                                read_options);
    if (!tensor.ok()) {
      std::fprintf(stderr, "%s\n", tensor.status().ToString().c_str());
      return 1;
    }
    keywords = tensor->keywords();
    locations = tensor->locations();
    fit = FitDspot(*tensor, options);
  }
  if (skipped_rows > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed row(s)\n",
                 skipped_rows);
  }
  if (!fit.ok()) {
    std::fprintf(stderr, "%s\n", fit.status().ToString().c_str());
    return 1;
  }
  std::printf("%s refit from %s\n", cold ? "cold" : "warm",
              flags.GetString("--model").c_str());
  std::printf("%s", RenderReport(fit->params, keywords).c_str());
  std::printf("\nrefit RMSE:\n");
  for (size_t i = 0; i < fit->global_rmse.size(); ++i) {
    std::printf("  %-20s %.3f\n",
                (i < keywords.size() ? keywords[i] : "?").c_str(),
                fit->global_rmse[i]);
  }
  std::printf("MDL total %.0f bits\n", fit->total_cost_bits);
  PrintHealth(fit->health);
  ModelSnapshot snapshot;
  snapshot.params = fit->params;
  snapshot.keywords = keywords;
  snapshot.locations = locations;
  snapshot.global_rmse = fit->global_rmse;
  snapshot.total_cost_bits = fit->total_cost_bits;
  snapshot.health = fit->health;
  if (const int rc = SaveModelIfRequested(flags, snapshot); rc != 0) {
    return rc;
  }
  return obs_export.Write();
}

int CmdUpdate(const Flags& flags) {
  const std::string input = flags.GetString("--input");
  if (input.empty() || !flags.HasValue("--model")) {
    std::fprintf(stderr,
                 "usage: dspot_cli update --model FILE --input FILE "
                 "[--append FILE] [--append-start TICK] "
                 "[--save-model FILE] [--model-json] "
                 "[--threads T>=1] [--time-budget-ms MS>=0] "
                 "[--skip-bad-rows] [--metrics-json FILE] "
                 "[--trace-out FILE]\n");
    return 1;
  }
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t threads = 0, time_budget_ms = 0, append_start = -1;
  if (!flags.ParseInt("--threads", 0, 1, kMax, &threads) ||
      !flags.ParseInt("--time-budget-ms", 0, 0, kMax, &time_budget_ms) ||
      !flags.ParseInt("--append-start", -1, 0, kMax, &append_start)) {
    return 1;
  }
  auto model = LoadModelFlag(flags);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  CsvReadOptions read_options;
  read_options.skip_bad_rows = flags.Has("--skip-bad-rows");
  size_t skipped_rows = 0;
  read_options.skipped_rows = &skipped_rows;
  auto tensor =
      LoadTensorCsv(input, /*fill_absent_with_zero=*/true, read_options);
  if (!tensor.ok()) {
    std::fprintf(stderr, "%s\n", tensor.status().ToString().c_str());
    return 1;
  }
  const std::string append_path = flags.GetString("--append");
  if (!append_path.empty()) {
    auto extra = LoadTensorCsv(append_path, /*fill_absent_with_zero=*/true,
                               read_options);
    if (!extra.ok()) {
      std::fprintf(stderr, "%s\n", extra.status().ToString().c_str());
      return 1;
    }
    // --append-start declares where the append file's tick 0 belongs on
    // the base tensor's axis; ConcatTicks rejects overlaps and gaps.
    // Without it the append is trusted to start directly after the base
    // (the historical relative-tick contract).
    auto combined =
        ConcatTicks(*tensor, *extra,
                    append_start < 0 ? kNpos
                                     : static_cast<size_t>(append_start));
    if (!combined.ok()) {
      std::fprintf(stderr, "%s\n", combined.status().ToString().c_str());
      return 1;
    }
    tensor = std::move(combined);
  }
  if (skipped_rows > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed row(s)\n",
                 skipped_rows);
  }
  DspotOptions options;
  options.num_threads = static_cast<size_t>(threads);
  options.time_budget_ms = static_cast<double>(time_budget_ms);
  const ObsExportRequest obs_export = ObsExportRequest::FromFlags(flags);
  auto update = UpdateFit(*model, *tensor, options);
  if (!update.ok()) {
    std::fprintf(stderr, "%s\n", update.status().ToString().c_str());
    return 1;
  }
  const DspotResult& result = update->result;
  std::printf("absorbed %zu appended tick(s) into %s\n",
              update->appended_ticks, flags.GetString("--model").c_str());
  std::printf("%s", RenderReport(result.params, tensor->keywords()).c_str());
  std::printf("\nper-keyword update:\n");
  for (size_t i = 0; i < tensor->num_keywords(); ++i) {
    std::printf("  %-20s RMSE %.3f  %s\n", tensor->keywords()[i].c_str(),
                result.global_rmse[i],
                update->redetected[i] ? "re-detected shocks"
                                      : "kept cached schedule");
  }
  std::printf("MDL total %.0f bits\n", result.total_cost_bits);
  PrintHealth(result.health);
  if (const int rc =
          SaveModelIfRequested(flags, MakeSnapshot(result, *tensor));
      rc != 0) {
    return rc;
  }
  return obs_export.Write();
}

int CmdStream(const Flags& flags) {
  const std::string events = flags.GetString("--events");
  const std::string load_path = flags.GetString("--load-state");
  const std::string wal_dir = flags.GetString("--wal-dir");
  const bool recover_only = flags.Has("--recover");
  if (events.empty() && load_path.empty() && wal_dir.empty()) {
    std::fprintf(stderr,
                 "usage: dspot_cli stream --events FILE [--resolution N>=1] "
                 "[--origin T] [--flush-every N>=1] [--ring N>=16] "
                 "[--horizon H>=1] [--threads T>=1] [--flush-budget-ms MS>=0] "
                 "[--load-state FILE] [--save-state FILE] "
                 "[--wal-dir DIR] [--fsync-policy never|flush|everyn] "
                 "[--recover] [--forecast KEYWORD] [--skip-bad-rows] "
                 "[--metrics-json FILE] [--trace-out FILE]\n");
    return 1;
  }
  if (!wal_dir.empty() && !load_path.empty()) {
    std::fprintf(stderr,
                 "--wal-dir and --load-state are mutually exclusive: a WAL "
                 "directory carries its own recovered state\n");
    return 1;
  }
  if (recover_only && wal_dir.empty()) {
    std::fprintf(stderr, "--recover requires --wal-dir DIR\n");
    return 1;
  }
  FsyncPolicy fsync_policy = FsyncPolicy::kOnFlush;
  if (const std::string policy = flags.GetString("--fsync-policy");
      !policy.empty()) {
    if (wal_dir.empty()) {
      std::fprintf(stderr, "--fsync-policy requires --wal-dir DIR\n");
      return 1;
    }
    if (policy == "never") {
      fsync_policy = FsyncPolicy::kNever;
    } else if (policy == "flush") {
      fsync_policy = FsyncPolicy::kOnFlush;
    } else if (policy == "everyn") {
      fsync_policy = FsyncPolicy::kEveryN;
    } else {
      std::fprintf(stderr,
                   "--fsync-policy must be one of never|flush|everyn, "
                   "got '%s'\n",
                   policy.c_str());
      return 1;
    }
  }
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t resolution = 0, origin = 0, flush_every = 0, ring = 0, horizon = 0;
  int64_t threads = 0, flush_budget_ms = 0, kill_after = 0;
  if (!flags.ParseInt("--resolution", 1, 1, kMax, &resolution) ||
      !flags.ParseInt("--origin", 0, std::numeric_limits<int64_t>::min(),
                      kMax, &origin) ||
      !flags.ParseInt("--flush-every", 16, 1, kMax, &flush_every) ||
      !flags.ParseInt("--ring", 256, 16, kMax, &ring) ||
      !flags.ParseInt("--horizon", 16, 1, kMax, &horizon) ||
      !flags.ParseInt("--threads", 1, 1, kMax, &threads) ||
      !flags.ParseInt("--flush-budget-ms", 0, 0, kMax, &flush_budget_ms) ||
      // Undocumented crash hook for the durability smoke test: SIGKILL the
      // process right after the Nth accepted append (0 = disabled).
      !flags.ParseInt("--kill-after", 0, 0, kMax, &kill_after)) {
    return 1;
  }
  const ObsExportRequest obs_export = ObsExportRequest::FromFlags(flags);

  StreamOptions options;
  options.ticks_resolution = resolution;
  options.origin = origin;
  options.ring_capacity = static_cast<size_t>(ring);
  options.forecast_horizon = static_cast<size_t>(horizon);
  options.num_threads = static_cast<size_t>(threads);
  options.flush_budget_ms = static_cast<double>(flush_budget_ms);

  std::unique_ptr<StreamEngine> owned;
  std::unique_ptr<DurableEngine> durable;
  StreamEngine* engine = nullptr;
  if (!wal_dir.empty()) {
    DurableOptions doptions;
    doptions.stream = options;
    doptions.fsync_policy = fsync_policy;
    auto opened = DurableEngine::Open(wal_dir, doptions);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    durable = std::move(*opened);
    engine = &durable->engine();
    const RecoveryReport& rec = durable->recovery();
    if (rec.fresh) {
      if (recover_only && events.empty()) {
        std::fprintf(stderr, "nothing to recover: %s was empty\n",
                     wal_dir.c_str());
        return 1;
      }
      std::printf("initialized WAL dir %s\n", wal_dir.c_str());
    } else {
      std::printf(
          "recovered %s: checkpoint seq %llu, replayed %llu append(s) and "
          "%llu flush(es) from the WAL tail, truncated %llu torn byte(s)\n",
          wal_dir.c_str(),
          static_cast<unsigned long long>(rec.checkpoint_seq),
          static_cast<unsigned long long>(rec.replayed_appends),
          static_cast<unsigned long long>(rec.replayed_flushes),
          static_cast<unsigned long long>(rec.truncated_bytes));
      if (rec.checkpoints_discarded > 0) {
        std::fprintf(stderr,
                     "warning: %zu damaged checkpoint(s) discarded — "
                     "recovered from an older one\n",
                     rec.checkpoints_discarded);
      }
    }
  } else if (!load_path.empty()) {
    // Semantic options (bucketing, ring size, thresholds) come from the
    // state file; the flags above only set this run's runtime knobs.
    auto loaded = StreamEngine::LoadState(load_path, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    owned = std::move(*loaded);
    engine = owned.get();
    std::printf("resumed %zu keyword(s) from %s\n", engine->num_keywords(),
                load_path.c_str());
  } else {
    owned = std::make_unique<StreamEngine>(options);
    engine = owned.get();
  }

  // stats.appends/rejected are lifetime counters and survive --load-state;
  // report only this run's replay work, not the resumed history.
  const StreamStats before = engine->stats();
  size_t flushes = 0;
  StreamFlushReport totals;
  auto flush_now = [&]() -> Status {
    auto report = durable ? durable->Flush() : engine->Flush();
    if (!report.ok()) return report.status();
    ++flushes;
    totals.keywords_triaged += report->keywords_triaged;
    totals.cold_fits += report->cold_fits;
    totals.warm_refits += report->warm_refits;
    totals.escalations += report->escalations;
    totals.refit_errors += report->refit_errors;
    totals.deadline_hit |= report->deadline_hit;
    return Status::Ok();
  };

  if (!events.empty()) {
    CsvReadOptions read_options;
    read_options.skip_bad_rows = flags.Has("--skip-bad-rows");
    size_t skipped_rows = 0;
    read_options.skipped_rows = &skipped_rows;
    const int64_t eng_resolution =
        std::max<int64_t>(engine->options().ticks_resolution, 1);
    const int64_t eng_origin = engine->options().origin;
    int64_t last_flush_bucket = std::numeric_limits<int64_t>::min();
    int64_t accepted_appends = 0;
    Status replay = ForEachEventCsv(
        events, read_options, [&](const EventRecord& r) -> Status {
          // Flush whenever stream time crosses a --flush-every boundary,
          // like a periodic ingest batch. A row without a tick (before the
          // origin, or too far past it) is left for Append to reject.
          const std::optional<uint64_t> offset =
              kernels::OffsetFromOrigin(r.timestamp, eng_origin);
          if (offset && *offset <= static_cast<uint64_t>(
                                       std::numeric_limits<int64_t>::max())) {
            const int64_t tick =
                static_cast<int64_t>(*offset) / eng_resolution;
            const int64_t bucket = tick / flush_every;
            if (last_flush_bucket != std::numeric_limits<int64_t>::min() &&
                bucket > last_flush_bucket) {
              DSPOT_RETURN_IF_ERROR(flush_now());
            }
            last_flush_bucket = bucket;
          }
          DSPOT_RETURN_IF_ERROR(
              durable
                  ? durable->Append(r.keyword, r.location, r.timestamp,
                                    r.count)
                  : engine->Append(r.keyword, r.location, r.timestamp,
                                   r.count));
          if (kill_after > 0 && ++accepted_appends >= kill_after) {
            std::raise(SIGKILL);
          }
          return Status::Ok();
        });
    if (!replay.ok()) {
      std::fprintf(stderr, "%s\n", replay.ToString().c_str());
      return 1;
    }
    if (skipped_rows > 0) {
      std::fprintf(stderr, "warning: skipped %zu bad row(s) in %s\n",
                   skipped_rows, events.c_str());
    }
  }
  if (Status s = flush_now(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (durable && !events.empty()) {
    // Fold the replayed tail into a fresh checkpoint so the next open
    // starts from here instead of re-replaying the whole WAL.
    if (Status s = durable->Checkpoint(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed %s at seq %llu\n", wal_dir.c_str(),
                static_cast<unsigned long long>(
                    durable->last_checkpoint_seq()));
  }

  const StreamStats stats = engine->stats();
  std::printf("replayed %llu append(s) into %zu keyword(s), %llu rejected\n",
              static_cast<unsigned long long>(stats.appends - before.appends),
              stats.num_keywords,
              static_cast<unsigned long long>(stats.rejected - before.rejected));
  std::printf("%zu flush(es): %zu cold fit(s), %zu warm refit(s), "
              "%zu escalation(s), %zu refit error(s)%s\n",
              flushes, totals.cold_fits, totals.warm_refits,
              totals.escalations, totals.refit_errors,
              totals.deadline_hit ? " [deadline hit]" : "");
  std::printf("buffers: %.1f KiB now, %.1f KiB peak\n",
              static_cast<double>(stats.buffer_bytes) / 1024.0,
              static_cast<double>(stats.peak_buffer_bytes) / 1024.0);

  // Print the requested keyword's forecast, or (without --forecast) a
  // sample of the first few fitted keywords'.
  const std::string forecast_kw = flags.GetString("--forecast");
  constexpr size_t kMaxPrinted = 8;
  size_t fitted = 0, printed = 0;
  for (size_t i = 0; i < engine->num_keywords(); ++i) {
    if (!engine->HasFit(i)) continue;
    ++fitted;
    if (forecast_kw.empty() ? printed >= kMaxPrinted
                            : engine->KeywordName(static_cast<uint32_t>(i)) !=
                                  forecast_kw) {
      continue;
    }
    auto forecast = engine->Forecast(i);
    if (!forecast.ok()) continue;
    ++printed;
    std::printf("forecast %-16s from tick %lld:",
                engine->KeywordName(static_cast<uint32_t>(i)).c_str(),
                static_cast<long long>(forecast->start_tick));
    for (const double v : forecast->values) {
      std::printf(" %.1f", v);
    }
    std::printf("\n");
  }
  if (!forecast_kw.empty() && engine->KeywordIndex(forecast_kw) == kNpos) {
    std::fprintf(stderr, "keyword '%s' not in the stream\n",
                 forecast_kw.c_str());
    return 1;
  }
  std::printf("%zu keyword(s) carry a fitted model\n", fitted);

  const std::string save_path = flags.GetString("--save-state");
  if (!save_path.empty()) {
    if (Status s = engine->SaveState(save_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote engine state to %s\n", save_path.c_str());
  }
  return obs_export.Write();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dspot_cli <scenarios|generate|aggregate|fit|"
                 "fit-tensor|refit|update|stream> [flags]\n");
    return 1;
  }
  const std::string command = argv[1];
  const Flags flags("dspot_cli", argc, argv, 2);
  if (!flags.RejectUnknown(
          {"--append", "--append-start", "--cold", "--events",
           "--flush-budget-ms", "--flush-every", "--forecast",
           "--forecast-output", "--fsync-policy", "--horizon", "--input",
           "--kill-after", "--load-state", "--locations", "--metrics-json",
           "--model", "--model-json", "--origin", "--outliers",
           "--outliers-for", "--output", "--recover", "--resolution", "--ring",
           "--save-model", "--save-state", "--scenario", "--seed", "--series",
           "--skip-bad-keywords", "--skip-bad-rows", "--threads", "--ticks",
           "--time-budget-ms", "--trace-out", "--wal-dir"})) {
    return 1;
  }
  if (command == "scenarios") return CmdScenarios();
  if (command == "generate") return CmdGenerate(flags);
  if (command == "aggregate") return CmdAggregate(flags);
  if (command == "fit") return CmdFit(flags);
  if (command == "fit-tensor") return CmdFitTensor(flags);
  if (command == "refit") return CmdRefit(flags);
  if (command == "update") return CmdUpdate(flags);
  if (command == "stream") return CmdStream(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}

}  // namespace
}  // namespace dspot

int main(int argc, char** argv) { return dspot::Main(argc, argv); }
