// fit_cold: FitDspot with the paper's default options (cold start,
// LOCALFIT on) on GoogleTrends-style tensors built from the Fig. 5
// trending-keyword suite, four keywords per worker thread.
//
// A run fits a set of tensors, each with its own noise draw from the seed,
// once each, then fits the first one again to check that a repeat gives
// the same model. One tensor's fit time depends on how its noise happens
// to steer the MDL search (a single keyword's GLOBALFIT took 0.3-2.3 s on
// one tensor, and the median fit time of one seed's four tensors ranged
// over +-15% across seeds), so a run over few tensors would measure its
// seed more than the code.
//
// End-to-end metrics: latency_ms is the mean wall time of one FitDspot
// call (fit_s), averaged per tensor and then over the tensors (the median
// of a few fits of different draws hung on one draw); throughput_per_s is
// keywords fitted per second at that mean.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dspot.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "harness.h"
#include "obs/metrics.h"
#include "quantile.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"

namespace perfbench {
namespace {

struct FitColdShape {
  size_t tensors = 8;
  size_t keywords = 16;
  size_t locations = 8;
  size_t ticks = 104;
  size_t threads = 4;
};

dspot::StatusOr<dspot::GeneratedTensor> MakeTensor(const FitColdShape& shape,
                                                   uint64_t seed) {
  dspot::GeneratorConfig config = dspot::GoogleTrendsConfig(Mix(seed));
  config.n_ticks = shape.ticks;
  config.num_locations = shape.locations;
  config.num_outlier_locations = 0;
  const std::vector<dspot::KeywordScenario> suite =
      dspot::TrendingKeywordSuite();
  std::vector<dspot::KeywordScenario> scenarios;
  for (size_t i = 0; i < shape.keywords; ++i) {
    dspot::KeywordScenario s = suite[i % suite.size()];
    s.name += "_" + std::to_string(i);
    // Keep shock starts inside the (shortened) horizon, as Fig. 10 does.
    for (dspot::ShockSpec& shock : s.shocks) {
      shock.start %= std::max<size_t>(shape.ticks / 2, 1);
    }
    scenarios.push_back(std::move(s));
  }
  return dspot::GenerateTensor(scenarios, config);
}

struct FitOutcome {
  bool ok = false;
  double ms = 0.0;
  uint32_t digest = 0;
  double cost_bits = 0.0;
  size_t failed_keywords = 0;
  dspot::ModelParamSet params;
};

FitOutcome FitOnce(const dspot::ActivityTensor& tensor, size_t threads) {
  dspot::DspotOptions options;
  options.num_threads = threads;
  FitOutcome out;
  const Clock::time_point t0 = Clock::now();
  dspot::StatusOr<dspot::DspotResult> fit = dspot::FitDspot(tensor, options);
  out.ms = MsSince(t0);
  if (!fit.ok()) {
    std::fprintf(stderr, "perfbench: FitDspot failed: %s\n",
                 fit.status().ToString().c_str());
    out.failed_keywords = tensor.num_keywords();
    return out;
  }
  for (const dspot::Status& s : fit->keyword_status) {
    if (!s.ok()) ++out.failed_keywords;
  }
  // Digest of the fitted model without its wall-time health fields.
  dspot::ModelSnapshot snapshot = dspot::MakeSnapshot(*fit, tensor);
  snapshot.health = dspot::FitHealth();
  const std::vector<uint8_t> payload = dspot::EncodeSnapshotPayload(snapshot);
  out.digest = dspot::Crc32(payload.data(), payload.size());
  out.cost_bits = fit->total_cost_bits;
  out.params = std::move(fit->params);
  out.ok = fit->AllKeywordsOk();
  return out;
}

/// Fits every tensor once and the first one again, then goes on in
/// rotation until `seconds` have passed: fits[i] is of tensors[i % size].
std::vector<FitOutcome> FitAll(
    const std::vector<dspot::GeneratedTensor>& tensors, size_t threads,
    double seconds) {
  std::vector<FitOutcome> fits;
  const Clock::time_point t0 = Clock::now();
  while (fits.size() <= tensors.size() || SecondsSince(t0) < seconds) {
    fits.push_back(
        FitOnce(tensors[fits.size() % tensors.size()].tensor, threads));
  }
  return fits;
}

/// Mean wall time of one fit: each tensor's fits averaged, then the
/// tensors averaged, so every draw counts once however often it was fitted.
double MeanFitMs(const std::vector<FitOutcome>& fits, size_t tensors) {
  std::vector<double> sum(tensors, 0.0), count(tensors, 0.0);
  for (size_t i = 0; i < fits.size(); ++i) {
    sum[i % tensors] += fits[i].ms;
    count[i % tensors] += 1.0;
  }
  double mean = 0.0;
  for (size_t k = 0; k < tensors; ++k) mean += sum[k] / count[k] / tensors;
  return mean;
}

/// Keyword 0 of a fitted model as a one-keyword set over its fitted ticks
/// plus a year of forecast, the span a served forecast simulates.
dspot::ModelParamSet FirstKeywordForecastSet(
    const dspot::ModelParamSet& params) {
  dspot::ModelParamSet set;
  set.global = {params.global[0]};
  for (const dspot::Shock& shock : params.shocks) {
    if (shock.keyword == 0) set.shocks.push_back(shock);
  }
  set.num_keywords = 1;
  set.num_locations = 1;
  set.num_ticks = params.num_ticks + 52;
  return set;
}

}  // namespace

void RunFitCold(const Args& args, Result* result) {
  FitColdShape shape;
  if (args.smoke) {
    shape.tensors = 3;
    shape.keywords = 4;
    shape.locations = 3;
    shape.ticks = 80;
    shape.threads = 2;
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu tensors of %zu keywords x %zu locations x %zu ticks, %zu "
                "threads",
                shape.tensors, shape.keywords, shape.locations, shape.ticks,
                shape.threads);
  result->Note(line);
  result->SetThreads("fit=" + std::to_string(shape.threads));

  // Set-up: generating the tensor set, seven times (it takes milliseconds,
  // so one sample is mostly timer and page-fault noise); the median is
  // setup_s.
  std::vector<double> setup_s;
  std::vector<dspot::GeneratedTensor> tensors;
  for (int rep = 0; rep < 7; ++rep) {
    tensors.clear();
    const Clock::time_point t0 = Clock::now();
    for (size_t k = 0; k < shape.tensors; ++k) {
      auto generated = MakeTensor(shape, args.seed * shape.tensors + k);
      if (!generated.ok()) {
        result->Gate(false, "tensor generation: " +
                                generated.status().ToString());
        return;
      }
      tensors.push_back(std::move(*generated));
    }
    setup_s.push_back(SecondsSince(t0));
  }
  result->SetSetup(setup_s);

  // Warm-up, untimed: a small fit first, as the first fit of a process ran
  // up to 60% slower than a repeat of it.
  FitColdShape warm_shape = shape;
  warm_shape.keywords = shape.threads;
  warm_shape.locations = 2;
  auto warm = MakeTensor(warm_shape, args.seed);
  if (!warm.ok() || !FitOnce(warm->tensor, shape.threads).ok) {
    result->Gate(false, "warm-up fit");
    return;
  }

  const std::vector<FitOutcome> fits =
      FitAll(tensors, shape.threads, args.seconds);
  bool all_ok = true;
  bool same = true;
  for (size_t i = 0; i < fits.size(); ++i) {
    const FitOutcome& first = fits[i % tensors.size()];
    result->Attempt(shape.keywords, fits[i].failed_keywords);
    all_ok = all_ok && fits[i].ok;
    same = same && fits[i].digest == first.digest &&
           fits[i].cost_bits == first.cost_bits;
  }
  result->Gate(all_ok, "every keyword of every fit is OK");
  result->Gate(same, "a repeated fit has the same params digest and cost "
                     "bits");
  double cost_bits = 0.0;
  std::vector<uint8_t> digests;
  for (size_t k = 0; k < tensors.size(); ++k) {
    cost_bits += fits[k].cost_bits;
    for (int b = 0; b < 4; ++b) digests.push_back(fits[k].digest >> (8 * b));
  }
  const double fit_ms = MeanFitMs(fits, tensors.size());
  std::string fit_line = "wall time of each fit (ms):";
  for (const FitOutcome& f : fits) fit_line += " " + std::to_string(f.ms);
  result->Note(fit_line);
  result->SetEndToEnd("latency_ms", fit_ms);
  result->SetEndToEnd("throughput_per_s",
                      static_cast<double>(shape.keywords) * 1e3 / fit_ms);
  result->SetReport("fit_s", fit_ms / 1e3, "s");
  result->SetReport("fits", static_cast<double>(fits.size()), "count");
  result->SetReport("fit_cost_bits", cost_bits, "bits");
  result->SetReport("params_digest",
                    dspot::Crc32(digests.data(), digests.size()), "crc32");
  result->SetEndToEnd("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    dspot::ObsRegistry& obs = dspot::ObsRegistry::Instance();
    obs.Reset();
    dspot::ObsOptions options;
    options.trace = true;
    obs.Enable(options);
    const Clock::time_point t0 = Clock::now();
    const std::vector<FitOutcome> traced =
        FitAll(tensors, shape.threads, args.seconds);
    const double wall_s = SecondsSince(t0);
    obs.Disable();
    const dspot::ObsSnapshot snap = obs.Snapshot();
    const std::vector<dspot::TraceEvent> events = obs.TraceEvents();
    bool traced_same = true;
    for (size_t i = 0; i < traced.size(); ++i) {
      result->Attempt(shape.keywords, traced[i].failed_keywords);
      traced_same =
          traced_same && traced[i].digest == fits[i % tensors.size()].digest;
    }
    result->Gate(traced_same, "traced fits match the untraced digest");

    const double n = static_cast<double>(traced.size());
    double traced_total_ms = 0.0;
    for (const FitOutcome& f : traced) traced_total_ms += f.ms;
    const double global_ms = HistogramSumMs(snap, "fit_dspot.global_fit") / n;
    const double local_ms = HistogramSumMs(snap, "fit_dspot.local_fit") / n;
    const double estimate_ms = HistogramSumMs(snap, "fit_dspot.estimate") / n;
    const double per_fit_ms = traced_total_ms / n;
    const double covered = global_ms + local_ms + estimate_ms;
    result->SetLayer("core.global_fit.ms", global_ms);
    result->SetLayer("core.local_fit.ms", local_ms);
    result->SetLayer("core.estimate.ms", estimate_ms);
    result->SetLayer("core.unattributed.ms", per_fit_ms - covered);
    result->SetLayer("core.stage_coverage", covered / per_fit_ms);
    result->Gate(covered / per_fit_ms >= 0.95,
                 "FitDspot stage spans cover >= 95% of fit_s");
    result->SetLayer("core.fit_cost_bits", cost_bits);
    SetFitLayerMetrics(snap, events, wall_s, shape.threads, n, result);
    if (!fits.front().params.global.empty()) {
      result->SetLayer(
          "core.forecast_sim.us",
          SimulateGlobalUs(FirstKeywordForecastSet(fits.front().params)));
    }
    result->SetLayer("obs.overhead.latency_ms",
                     MeanFitMs(traced, tensors.size()) - fit_ms);
    WriteTrace(args.work_dir + "/fit_cold-seed" + std::to_string(args.seed) +
                   ".trace.json",
               result);
  }
}

}  // namespace perfbench
