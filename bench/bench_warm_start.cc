// Fig. 11-style serving benchmark: cold fit vs snapshot warm-started
// refit vs incremental UpdateFit, on tensors of growing size. The warm
// paths skip the cold multi-start MDL search, so both wall-clock and the
// "lm.iterations" counter should drop sharply while the MDL cost of the
// refit model stays at (or below) the cold fit's.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dspot.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"
#include "snapshot/update.h"

namespace dspot {
namespace {

double LmIterations() {
  return static_cast<double>(
      ObsRegistry::Instance().Snapshot().CounterValue("lm.iterations"));
}

struct Timed {
  double ms = -1.0;
  double lm_iters = 0.0;
  double cost_bits = 0.0;
};

ActivityTensor MakeTensor(size_t d, size_t l, size_t n, uint64_t seed) {
  GeneratorConfig config = GoogleTrendsConfig(seed);
  config.n_ticks = n;
  config.num_locations = l;
  config.num_outlier_locations = 0;
  std::vector<KeywordScenario> suite = TrendingKeywordSuite();
  std::vector<KeywordScenario> scenarios;
  for (size_t i = 0; i < d; ++i) {
    KeywordScenario s = suite[i % suite.size()];
    s.name += "_" + std::to_string(i);
    for (auto& shock : s.shocks) {
      shock.start %= std::max<size_t>(n / 2, 1);
    }
    scenarios.push_back(std::move(s));
  }
  auto generated = GenerateTensor(scenarios, config);
  if (!generated.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 generated.status().ToString().c_str());
    return ActivityTensor();
  }
  return generated->tensor;
}

/// Extends `tensor` by `appended` ticks that repeat the last observed
/// value — quiet data that should not trigger shock re-detection.
ActivityTensor ExtendQuiet(const ActivityTensor& tensor, size_t appended) {
  ActivityTensor out(tensor.num_keywords(), tensor.num_locations(),
                     tensor.num_ticks() + appended);
  for (size_t i = 0; i < tensor.num_keywords(); ++i) {
    (void)out.SetKeywordName(i, tensor.keywords()[i]);
    for (size_t j = 0; j < tensor.num_locations(); ++j) {
      for (size_t t = 0; t < tensor.num_ticks(); ++t) {
        out.at(i, j, t) = tensor.at(i, j, t);
      }
      for (size_t t = 0; t < appended; ++t) {
        out.at(i, j, tensor.num_ticks() + t) =
            tensor.at(i, j, tensor.num_ticks() - 1);
      }
    }
  }
  return out;
}

void Row(size_t d, size_t l, size_t n, bench::BenchJson* json) {
  const ActivityTensor tensor = MakeTensor(d, l, n, /*seed=*/7);
  if (tensor.empty()) return;

  Timed cold;
  ObsRegistry::Instance().Reset();
  auto t0 = std::chrono::steady_clock::now();
  auto cold_fit = FitDspot(tensor);
  if (!cold_fit.ok()) {
    std::fprintf(stderr, "cold fit failed: %s\n",
                 cold_fit.status().ToString().c_str());
    return;
  }
  cold.ms = ElapsedMs(t0);
  cold.lm_iters = LmIterations();
  cold.cost_bits = cold_fit->total_cost_bits;

  // Round-trip the model through the binary snapshot backend so the warm
  // paths measure serving reality (load + refit), not an in-memory copy.
  const std::string path = "bench_warm_start.model";
  const ModelSnapshot snapshot = MakeSnapshot(*cold_fit, tensor);
  if (Status s = SaveSnapshot(snapshot, path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return;
  }
  auto loaded = LoadSnapshot(path);
  std::remove(path.c_str());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return;
  }

  Timed warm;
  ObsRegistry::Instance().Reset();
  t0 = std::chrono::steady_clock::now();
  DspotOptions warm_options;
  warm_options.global.warm_start = &loaded->params;
  auto warm_fit = FitDspot(tensor, warm_options);
  if (!warm_fit.ok()) {
    std::fprintf(stderr, "warm refit failed: %s\n",
                 warm_fit.status().ToString().c_str());
    return;
  }
  warm.ms = ElapsedMs(t0);
  warm.lm_iters = LmIterations();
  warm.cost_bits = warm_fit->total_cost_bits;

  Timed update;
  const ActivityTensor extended = ExtendQuiet(tensor, /*appended=*/26);
  ObsRegistry::Instance().Reset();
  t0 = std::chrono::steady_clock::now();
  auto updated = UpdateFit(*loaded, extended);
  if (!updated.ok()) {
    std::fprintf(stderr, "update failed: %s\n",
                 updated.status().ToString().c_str());
    return;
  }
  update.ms = ElapsedMs(t0);
  update.lm_iters = LmIterations();
  update.cost_bits = updated->result.total_cost_bits;

  std::printf("%4zu %4zu %5zu | %9.0f %8.0f %9.0f | %9.0f %8.0f %9.0f "
              "(%4.1fx) | %9.0f %8.0f\n",
              d, l, n, cold.ms, cold.lm_iters, cold.cost_bits, warm.ms,
              warm.lm_iters, warm.cost_bits,
              warm.ms > 0 ? cold.ms / warm.ms : 0.0, update.ms,
              update.lm_iters);

  json->AddRow();
  json->SetRow("keywords", static_cast<double>(d));
  json->SetRow("locations", static_cast<double>(l));
  json->SetRow("ticks", static_cast<double>(n));
  json->SetRow("cold_ms", cold.ms);
  json->SetRow("cold_lm_iterations", cold.lm_iters);
  json->SetRow("cold_cost_bits", cold.cost_bits);
  json->SetRow("warm_ms", warm.ms);
  json->SetRow("warm_lm_iterations", warm.lm_iters);
  json->SetRow("warm_cost_bits", warm.cost_bits);
  json->SetRow("update_ms", update.ms);
  json->SetRow("update_lm_iterations", update.lm_iters);
}

}  // namespace
}  // namespace dspot

int main() {
  std::printf("Δ-SPOT serving: cold fit vs warm (snapshot) refit vs "
              "incremental update\n\n");
  std::printf("%4s %4s %5s | %9s %8s %9s | %9s %8s %9s %7s | %9s %8s\n", "d",
              "l", "n", "cold ms", "lm it", "bits", "warm ms", "lm it",
              "bits", "speedup", "upd ms", "lm it");
  dspot::ObsRegistry::Instance().Enable(dspot::ObsOptions());
  const auto t0 = std::chrono::steady_clock::now();
  dspot::bench::BenchJson json("warm_start");
  dspot::Row(1, 4, 104, &json);
  dspot::Row(2, 4, 208, &json);
  dspot::Row(4, 8, 208, &json);
  dspot::Row(8, 8, 208, &json);
  json.Set("wall_ms", std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  json.Set("threads", 1.0);
  if (json.WriteTo("BENCH_warm_start.json")) {
    std::printf("\nwrote BENCH_warm_start.json\n");
  }
  return 0;
}
