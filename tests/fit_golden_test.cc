// Exact pin of the fit output: two small seeded FitDspot tensors (the
// shape of perfbench's --smoke fit_cold: 4 keywords x 3 locations x 80
// ticks) fitted at 1 and at 4 threads, plus one RefitGlobalSequence warm
// refit of a longer sequence with a cyclic event and a growth onset. Every
// fitted parameter, every shock field and the total cost are printed with
// %.17g and compared with checked-in text, so a change that claims
// bit-identical fits is held to it. A second golden pins the baselines the
// same way: one seeded series each through FUNNEL (global and local),
// SpikeM, TBATS with a forecast, SIRS and SKIPS, every parameter and RMSE.
//
// The Gaussian coding cost uses golden-tolerance SIMD reductions
// (kernels/dspot_simd.h), so the last bits of the MDL decisions depend on
// the lane width: there is one expected file per kernels::SimdIsaName()
// under tests/golden/, and an ISA with no file skips. To regenerate after
// a reviewed change of results, run the test with DSPOT_UPDATE_GOLDEN=1 on
// each ISA's build.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/funnel.h"
#include "baselines/spikem.h"
#include "baselines/tbats.h"
#include "common/random.h"
#include "core/dspot.h"
#include "core/global_fit.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "epidemics/sir_family.h"
#include "epidemics/skips.h"
#include "kernels/reduce.h"

namespace dspot {
namespace {

constexpr size_t kKeywords = 4;
constexpr size_t kLocations = 3;
constexpr size_t kTicks = 80;

ActivityTensor MakeTensor(uint64_t seed) {
  GeneratorConfig config = GoogleTrendsConfig(seed);
  config.n_ticks = kTicks;
  config.num_locations = kLocations;
  config.num_outlier_locations = 0;
  const std::vector<KeywordScenario> suite = TrendingKeywordSuite();
  std::vector<KeywordScenario> scenarios;
  for (size_t i = 0; i < kKeywords; ++i) {
    KeywordScenario s = suite[i % suite.size()];
    s.name += "_" + std::to_string(i);
    for (ShockSpec& shock : s.shocks) shock.start %= kTicks / 2;
    scenarios.push_back(std::move(s));
  }
  StatusOr<GeneratedTensor> generated = GenerateTensor(scenarios, config);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return generated.ok() ? generated->tensor : ActivityTensor();
}

std::string Num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

void AppendGlobal(const KeywordGlobalParams& g, std::ostringstream* out) {
  *out << "  global N=" << Num(g.population) << " beta=" << Num(g.beta)
       << " delta=" << Num(g.delta) << " gamma=" << Num(g.gamma)
       << " i0=" << Num(g.i0) << " eta0=" << Num(g.growth_rate)
       << " t_eta=" << (g.has_growth() ? std::to_string(g.growth_start)
                                       : std::string("none"))
       << "\n";
}

void AppendShock(const Shock& s, std::ostringstream* out) {
  *out << "  shock kw=" << s.keyword << " t_p=" << s.period
       << " t_s=" << s.start << " t_w=" << s.width
       << " eps0=" << Num(s.base_strength) << " global=[";
  for (size_t m = 0; m < s.global_strengths.size(); ++m) {
    *out << (m ? " " : "") << Num(s.global_strengths[m]);
  }
  *out << "] local=[";
  for (size_t r = 0; r < s.local_strengths.rows(); ++r) {
    for (size_t c = 0; c < s.local_strengths.cols(); ++c) {
      *out << (r || c ? " " : "") << Num(s.local_strengths(r, c));
    }
  }
  *out << "]\n";
}

void AppendMatrix(const char* name, const Matrix& m, std::ostringstream* out) {
  *out << "  " << name << "=[";
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      *out << (r || c ? " " : "") << Num(m(r, c));
    }
  }
  *out << "]\n";
}

void AppendFit(uint64_t seed, size_t threads, std::ostringstream* out) {
  const ActivityTensor tensor = MakeTensor(seed);
  DspotOptions options;
  options.num_threads = threads;
  StatusOr<DspotResult> fit = FitDspot(tensor, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  *out << "fit seed=" << seed << " threads=" << threads
       << " total_cost_bits=" << Num(fit->total_cost_bits) << "\n";
  for (const KeywordGlobalParams& g : fit->params.global) AppendGlobal(g, out);
  AppendMatrix("base_local", fit->params.base_local, out);
  AppendMatrix("growth_local", fit->params.growth_local, out);
  for (const Shock& s : fit->params.shocks) AppendShock(s, out);
}

/// Warm refit of one sequence with a cyclic event, a growth onset and
/// missing ticks (the paths the small tensors above do not reach): a fit
/// on the first 140 ticks, extended to 160.
void AppendRefit(uint64_t seed, std::ostringstream* out) {
  KeywordScenario scenario = GrammyScenario();
  scenario.shocks[0].period = 26;
  scenario.shocks[0].start = 10;
  scenario.growth_rate = 0.3;
  scenario.growth_start = 70;
  GeneratorConfig config = GoogleTrendsConfig(seed);
  config.n_ticks = 160;
  config.num_locations = kLocations;
  config.num_outlier_locations = 0;
  config.missing_rate = 0.05;
  StatusOr<Series> full = GenerateGlobalSequence(scenario, config);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  Series prefix(140);
  for (size_t t = 0; t < prefix.size(); ++t) prefix[t] = (*full)[t];
  StatusOr<GlobalSequenceFit> previous = FitGlobalSequence(prefix, 0, 1);
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  *out << "prefix fit seed=" << seed
       << " cost_bits=" << Num(previous->cost_bits) << "\n";
  AppendGlobal(previous->params, out);
  for (const Shock& s : previous->shocks) AppendShock(s, out);
  StatusOr<GlobalSequenceFit> refit =
      RefitGlobalSequence(*full, 0, 1, *previous);
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();
  *out << "refit seed=" << seed << " cost_bits=" << Num(refit->cost_bits)
       << " rmse=" << Num(refit->rmse) << "\n";
  AppendGlobal(refit->params, out);
  for (const Shock& s : refit->shocks) AppendShock(s, out);
}

/// A forced SIRS with two one-shot shocks at `scale` times the population,
/// plus seeded Gaussian noise: FUNNEL's own model, whose residual bursts
/// feed its shock search.
Series NoisyFunnelSeries(double scale, uint64_t seed) {
  FunnelParams truth;
  truth.base.population = 150.0 * scale;
  truth.base.beta0 = 0.55;
  truth.base.delta = 0.35;
  truth.base.gamma = 0.15;
  truth.base.amplitude = 0.2;
  truth.base.period = 26.0;
  truth.base.i0 = scale;
  truth.shocks.push_back({.start = 70, .width = 3, .strength = 12.0});
  truth.shocks.push_back({.start = 130, .width = 2, .strength = 8.0});
  Series data = SimulateFunnel(truth, 182);
  Random rng(seed);
  for (size_t t = 0; t < data.size(); ++t) {
    data[t] = std::max(0.0, data[t] + rng.Gaussian(0.0, scale));
  }
  return data;
}

/// The baselines' fits of seeded series: FUNNEL's model (global, and a
/// location at a third of its volume for the local refit), a Grammy-like
/// keyword (annual event, 3.5 years) for TBATS, SIRS and SKIPS, and a
/// single meme burst for SpikeM.
void AppendBaselines(uint64_t seed, std::ostringstream* out) {
  GeneratorConfig config = GoogleTrendsConfig(seed);
  config.n_ticks = 182;
  config.num_locations = kLocations;
  config.num_outlier_locations = 0;
  StatusOr<GeneratedTensor> generated =
      GenerateTensor({GrammyScenario()}, config);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const Series data = generated->tensor.GlobalSequence(0);

  const auto append_skips = [out](const SkipsParams& p) {
    *out << "  N=" << Num(p.population) << " beta0=" << Num(p.beta0)
         << " delta=" << Num(p.delta) << " gamma=" << Num(p.gamma)
         << " amplitude=" << Num(p.amplitude) << " period=" << Num(p.period)
         << " phase=" << Num(p.phase) << " i0=" << Num(p.i0) << "\n";
  };
  const auto append_funnel = [&](const char* name, const FunnelFit& fit) {
    *out << name << " seed=" << seed << " rmse=" << Num(fit.rmse)
         << " cost_bits=" << Num(fit.total_cost_bits) << "\n";
    append_skips(fit.params.base);
    for (const FunnelShock& s : fit.params.shocks) {
      *out << "  shock t_s=" << s.start << " t_w=" << s.width
           << " strength=" << Num(s.strength) << "\n";
    }
  };
  StatusOr<FunnelFit> funnel = FitFunnel(NoisyFunnelSeries(1.0, seed));
  ASSERT_TRUE(funnel.ok()) << funnel.status().ToString();
  append_funnel("funnel", *funnel);
  StatusOr<FunnelFit> funnel_local =
      FitFunnelLocal(NoisyFunnelSeries(1.0 / 3.0, seed + 100), *funnel);
  ASSERT_TRUE(funnel_local.ok()) << funnel_local.status().ToString();
  append_funnel("funnel_local", *funnel_local);

  StatusOr<TbatsModel> tbats = TbatsModel::Fit(data);
  ASSERT_TRUE(tbats.ok()) << tbats.status().ToString();
  *out << "tbats seed=" << seed << " period=" << tbats->period()
       << " harmonics=" << tbats->harmonics()
       << " alpha=" << Num(tbats->alpha()) << " beta=" << Num(tbats->beta())
       << " phi=" << Num(tbats->phi()) << "\n  forecast=[";
  const Series forecast = tbats->Forecast(data, 26);
  for (size_t t = 0; t < forecast.size(); ++t) {
    *out << (t ? " " : "") << Num(forecast[t]);
  }
  *out << "]\n";

  StatusOr<SirsFit> sirs = FitSirs(data);
  ASSERT_TRUE(sirs.ok()) << sirs.status().ToString();
  *out << "sirs seed=" << seed << " rmse=" << Num(sirs->info.rmse)
       << " lm_iterations=" << sirs->info.lm_iterations << "\n  N="
       << Num(sirs->params.population) << " beta=" << Num(sirs->params.beta)
       << " delta=" << Num(sirs->params.delta)
       << " gamma=" << Num(sirs->params.gamma)
       << " i0=" << Num(sirs->params.i0) << "\n";

  StatusOr<SkipsFit> skips = FitSkips(data);
  ASSERT_TRUE(skips.ok()) << skips.status().ToString();
  *out << "skips seed=" << seed << " rmse=" << Num(skips->rmse) << "\n";
  append_skips(skips->params);

  GeneratorConfig meme_config = MemeTrackerConfig(seed);
  meme_config.num_outlier_locations = 0;
  StatusOr<Series> meme = GenerateGlobalSequence(Meme3Scenario(), meme_config);
  ASSERT_TRUE(meme.ok()) << meme.status().ToString();
  StatusOr<SpikeMFit> spikem = FitSpikeM(*meme);
  ASSERT_TRUE(spikem.ok()) << spikem.status().ToString();
  const SpikeMParams& p = spikem->params;
  *out << "spikem seed=" << seed << " rmse=" << Num(spikem->rmse)
       << "\n  N=" << Num(p.population) << " beta=" << Num(p.beta)
       << " n_b=" << p.shock_start << " S_b=" << Num(p.shock_size)
       << " background=" << Num(p.background) << " p_p=" << Num(p.period)
       << " p_a=" << Num(p.periodicity_amplitude)
       << " p_s=" << Num(p.periodicity_shift) << "\n";
}

/// Compares `actual` with tests/golden/<name>_<isa>.txt line by line (or
/// rewrites that file under DSPOT_UPDATE_GOLDEN=1).
void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(DSPOT_GOLDEN_DIR) + "/" + name + "_" +
                           kernels::SimdIsaName() + ".txt";
  const char* update = std::getenv("DSPOT_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(path) << actual;
    GTEST_SKIP() << "wrote " << path;
  }
  std::ifstream in(path);
  if (!in) {
    GTEST_SKIP() << "no " << name << " for SIMD ISA '"
                 << kernels::SimdIsaName() << "' (" << path << ")";
  }
  std::stringstream expected;
  expected << in.rdbuf();
  // Line by line, so a failure names the first field that moved.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line, got_line;
  size_t line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line)) << "output ends at line " << line;
    ASSERT_EQ(want_line, got_line) << "first difference at line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line))
      << "output has extra lines from line " << line + 1;
}

TEST(FitGolden, OutputsMatchCheckedInText) {
  std::ostringstream actual;
  for (const uint64_t seed : {1u, 2u}) {
    for (const size_t threads : {1u, 4u}) {
      AppendFit(seed, threads, &actual);
    }
  }
  AppendRefit(1, &actual);
  ASSERT_FALSE(HasFatalFailure());
  ExpectMatchesGolden("fit_golden", actual.str());
}

TEST(FitGolden, BaselinesMatchCheckedInText) {
  std::ostringstream actual;
  for (const uint64_t seed : {1u, 2u}) AppendBaselines(seed, &actual);
  ASSERT_FALSE(HasFatalFailure());
  ExpectMatchesGolden("baselines_golden", actual.str());
}

}  // namespace
}  // namespace dspot
