// Exact pin of the fit output: two small seeded FitDspot tensors (the
// shape of perfbench's --smoke fit_cold: 4 keywords x 3 locations x 80
// ticks) fitted at 1 and at 4 threads, plus one RefitGlobalSequence warm
// refit of a longer sequence with a cyclic event and a growth onset. Every
// fitted parameter, every shock field and the total cost are printed with
// %.17g and compared with checked-in text, so a change that claims
// bit-identical fits is held to it.
//
// The Gaussian coding cost uses golden-tolerance SIMD reductions
// (kernels/dspot_simd.h), so the last bits of the MDL decisions depend on
// the lane width: there is one expected file per kernels::SimdIsaName()
// under tests/golden/, and an ISA with no file skips. To regenerate after
// a reviewed change of results, run the test with DSPOT_UPDATE_GOLDEN=1 on
// each ISA's build.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dspot.h"
#include "core/global_fit.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
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

std::string GoldenPath() {
  return std::string(DSPOT_GOLDEN_DIR) + "/fit_golden_" +
         kernels::SimdIsaName() + ".txt";
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

  const std::string path = GoldenPath();
  const char* update = std::getenv("DSPOT_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(path) << actual.str();
    GTEST_SKIP() << "wrote " << path;
  }
  std::ifstream in(path);
  if (!in) {
    GTEST_SKIP() << "no fit golden for SIMD ISA '" << kernels::SimdIsaName()
                 << "' (" << path << ")";
  }
  std::stringstream expected;
  expected << in.rdbuf();
  // Line by line, so a failure names the first field that moved.
  std::istringstream want(expected.str());
  std::istringstream got(actual.str());
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

}  // namespace
}  // namespace dspot
