// Micro-benchmarks (google-benchmark) for the numeric kernels underlying
// the pipeline: SIV simulation, epsilon construction, LM on a canonical
// problem, and the dense solvers. A custom main additionally times the
// kernel layer directly (SIMD batch vs scalar SIV and the batch cost per
// lane count, resumed vs full runs, the fused normal equations vs Jacobian
// + Gram + J^T r, SIMD vs scalar-fold reductions, analytic vs numeric LM
// derivatives, lock-stepped vs serial LM solves) and exports
// the results — including the bit-identity / golden-tolerance verdicts the
// CI kernel job asserts on — to BENCH_micro.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "bench_util.h"
#include "common/math_util.h"
#include "core/dspot.h"
#include "core/shock.h"
#include "core/simulate.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "guard/fault_injector.h"
#include "kernels/dspot_simd.h"
#include "kernels/reduce.h"
#include "kernels/siv_kernel.h"
#include "linalg/matrix.h"
#include "linalg/solvers.h"
#include "mdl/mdl.h"
#include "obs/metrics.h"
#include "optimize/levenberg_marquardt.h"
#include "optimize/line_search.h"
#include "timeseries/peaks.h"
#include "timeseries/stats.h"

namespace dspot {
namespace {

void BM_SimulateSiv(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SivInputs inputs;
  inputs.population = 200.0;
  inputs.beta = 0.5;
  inputs.delta = 0.45;
  inputs.gamma = 0.5;
  inputs.i0 = 1.0;
  inputs.epsilon.assign(n, 1.0);
  for (size_t t = 30; t < n; t += 52) {
    inputs.epsilon[t] = 9.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateSiv(inputs, n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimulateSiv)->Arg(128)->Arg(575)->Arg(2048);

/// The bare recurrence with caller-owned schedules and output buffer — the
/// floor every residual evaluation pays. The loop is a serial FP
/// dependency chain (one divide + chained multiplies per tick), so this
/// does not vectorize; the workspace refactor removes everything *around*
/// it, not the chain itself.
void BM_SimulateSivInto(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> epsilon(n, 1.0);
  for (size_t t = 30; t < n; t += 52) {
    epsilon[t] = 9.0;
  }
  const kernels::SivParams params{200.0, 0.5, 0.45, 0.5, 1.0};
  std::vector<double> out(n);
  for (auto _ : state) {
    kernels::SimulateSivScalarInto(params, epsilon, {}, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimulateSivInto)->Arg(128)->Arg(575)->Arg(2048);

/// Fixture mirroring GLOBALFIT's per-keyword state: the data sequence,
/// the keyword's shocks, and the SIV scalars under optimization.
struct ResidualFixture {
  Series data;
  std::vector<Shock> shocks;
  double population = 200.0;
  double beta = 0.5;
  double delta = 0.45;
  double gamma = 0.5;
  double i0 = 1.0;
};

ResidualFixture MakeResidualFixture(size_t n) {
  ResidualFixture f;
  f.data = Series(n);
  for (size_t t = 0; t < n; ++t) {
    f.data[t] = 5.0 + 2.0 * std::sin(0.2 * static_cast<double>(t));
  }
  f.shocks.resize(1);
  f.shocks[0].period = 52;
  f.shocks[0].start = 30;
  f.shocks[0].width = 3;
  f.shocks[0].global_strengths.assign(f.shocks[0].NumOccurrences(n), 8.0);
  return f;
}

/// One residual evaluation as the pre-workspace base fit performed it:
/// copy the fit state (data + shocks), rebuild the epsilon/eta schedules,
/// allocate a fresh Series trajectory, and grow the residual vector with
/// push_back — on every single LM residual call.
void BM_ResidualSimulateAllocating(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ResidualFixture fixture = MakeResidualFixture(n);
  std::vector<double> residuals;
  for (auto _ : state) {
    ResidualFixture probe = fixture;
    SivInputs inputs;
    inputs.population = probe.population;
    inputs.beta = probe.beta;
    inputs.delta = probe.delta;
    inputs.gamma = probe.gamma;
    inputs.i0 = probe.i0;
    inputs.epsilon = BuildGlobalEpsilon(probe.shocks, 0, n);
    inputs.eta = BuildEta(0.01, n / 3, n);
    const Series est = SimulateSiv(inputs, n);
    residuals.clear();
    for (size_t t = 0; t < n; ++t) {
      if (!probe.data.IsObserved(t)) continue;
      residuals.push_back(est[t] - probe.data[t]);
    }
    benchmark::DoNotOptimize(residuals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ResidualSimulateAllocating)->Arg(128)->Arg(575)->Arg(2048);

/// The same residual evaluation on the workspace path: schedules hoisted
/// out of the solve (ScheduleCache serves memoized spans), the trajectory
/// written into a caller-owned buffer, and residuals written through the
/// precomputed observed-tick index — what every LM residual call costs
/// after the refactor.
void BM_ResidualSimulateWorkspace(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ResidualFixture fixture = MakeResidualFixture(n);
  ScheduleCache cache;
  const std::span<const double> epsilon =
      cache.GlobalEpsilon(fixture.shocks, 0, n);
  const std::span<const double> eta = cache.Eta(0.01, n / 3, n);
  std::vector<size_t> observed;
  for (size_t t = 0; t < n; ++t) {
    if (fixture.data.IsObserved(t)) observed.push_back(t);
  }
  const std::span<const double> data = fixture.data.values();
  std::vector<double> estimate(n);
  std::vector<double> residuals(observed.size());
  for (auto _ : state) {
    const kernels::SivParams params{fixture.population, fixture.beta,
                                    fixture.delta, fixture.gamma, fixture.i0};
    kernels::SimulateSivScalarInto(params, epsilon, eta, estimate);
    for (size_t k = 0; k < observed.size(); ++k) {
      const size_t t = observed[k];
      residuals[k] = estimate[t] - data[t];
    }
    benchmark::DoNotOptimize(residuals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ResidualSimulateWorkspace)->Arg(128)->Arg(575)->Arg(2048);

void BM_BuildGlobalEpsilon(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Shock> shocks(4);
  for (size_t k = 0; k < shocks.size(); ++k) {
    shocks[k].keyword = 0;
    shocks[k].period = 52;
    shocks[k].start = 5 + 3 * k;
    shocks[k].width = 3;
    shocks[k].global_strengths.assign(shocks[k].NumOccurrences(n), 5.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildGlobalEpsilon(shocks, 0, n));
  }
}
BENCHMARK(BM_BuildGlobalEpsilon)->Arg(575)->Arg(2048);

void BM_LevenbergMarquardtRosenbrock(benchmark::State& state) {
  auto residual_fn = [](const std::vector<double>& p,
                        std::vector<double>* r) -> Status {
    r->assign({10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]});
    return Status::Ok();
  };
  for (auto _ : state) {
    auto result = LevenbergMarquardt(residual_fn, {-1.2, 1.0});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LevenbergMarquardtRosenbrock);

void BM_LevenbergMarquardtWorkspace(benchmark::State& state) {
  ResidualIntoFn residual_fn = [](std::span<const double> p,
                                  std::span<double> r) -> Status {
    r[0] = 10.0 * (p[1] - p[0] * p[0]);
    r[1] = 1.0 - p[0];
    return Status::Ok();
  };
  LmWorkspace workspace;
  const std::vector<double> initial = {-1.2, 1.0};
  for (auto _ : state) {
    auto result = LevenbergMarquardt(residual_fn, 2, initial, Bounds(),
                                     LmOptions(), &workspace);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LevenbergMarquardtWorkspace);

/// End-to-end Δ-SPOT fit on a small synthetic tensor (1 keyword, 3
/// locations, 2 years of weekly ticks): the macro view of the workspace
/// refactor, covering GLOBALFIT's alternation, LOCALFIT, and the final
/// MDL scoring.
void BM_FitDspotSmall(benchmark::State& state) {
  GeneratorConfig config = GoogleTrendsConfig(3);
  config.n_ticks = 104;
  config.num_locations = 3;
  config.num_outlier_locations = 0;
  auto generated = GenerateTensor({GrammyScenario()}, config);
  if (!generated.ok()) {
    state.SkipWithError("tensor generation failed");
    return;
  }
  DspotOptions options;
  options.global.max_outer_rounds = 1;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = FitDspot(generated->tensor, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FitDspotSmall)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_CholeskySolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = (i == j) ? 4.0 : 1.0 / static_cast<double>(1 + i + j);
    }
  }
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CholeskySolve(a, b));
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(8)->Arg(32)->Arg(128);

Series SpikyFixture(size_t n) {
  Series s(n);
  for (size_t t = 0; t < n; ++t) {
    s[t] = 10.0 + 3.0 * std::sin(0.37 * static_cast<double>(t));
  }
  for (size_t t = 6; t < n; t += 52) {
    s[t] = 120.0;
  }
  return s;
}

void BM_Autocorrelation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Series s = SpikyFixture(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Autocorrelation(s, n / 2));
  }
}
BENCHMARK(BM_Autocorrelation)->Arg(575)->Arg(2048);

void BM_FindBursts(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Series s = SpikyFixture(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindBursts(s));
  }
}
BENCHMARK(BM_FindBursts)->Arg(575)->Arg(2048);

void BM_GaussianCodingCost(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Series a = SpikyFixture(n);
  Series e = a;
  for (size_t t = 0; t < n; ++t) e[t] += 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianCodingCost(a, e));
  }
}
BENCHMARK(BM_GaussianCodingCost)->Arg(575)->Arg(2048);

void BM_PoissonCodingCost(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Series a = SpikyFixture(n);
  Series e = a;
  for (size_t t = 0; t < n; ++t) e[t] += 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonCodingCost(a, e));
  }
}
BENCHMARK(BM_PoissonCodingCost)->Arg(575)->Arg(2048);

void BM_GoldenSection(benchmark::State& state) {
  auto fn = [](double x) { return (x - 3.3) * (x - 3.3); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(GoldenSectionMinimize(fn, 0.0, 50.0, 1e-6));
  }
}
BENCHMARK(BM_GoldenSection);

// --- dspot_obs probe cost ---------------------------------------------
//
// The observability contract is "disarmed probes are free": one relaxed
// atomic load, the same budget the FaultInjector probe pays. These four
// benchmarks pin that claim — the disarmed counter and span should match
// BM_FaultInjectorProbeDisarmed within noise, and the armed variants show
// what turning DSPOT_OBS=1 actually costs per probe.

void BM_FaultInjectorProbeDisarmed(benchmark::State& state) {
  FaultInjector::Instance().Disarm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FaultInjector::Instance().armed());
  }
}
BENCHMARK(BM_FaultInjectorProbeDisarmed);

void BM_ObsCounterDisarmed(benchmark::State& state) {
  ObsRegistry::Instance().Disable();
  for (auto _ : state) {
    DSPOT_COUNT("bench.disarmed.counter", 1);
  }
}
BENCHMARK(BM_ObsCounterDisarmed);

void BM_ObsSpanDisarmed(benchmark::State& state) {
  ObsRegistry::Instance().Disable();
  for (auto _ : state) {
    DSPOT_SPAN("bench.disarmed.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisarmed);

void BM_ObsCounterArmed(benchmark::State& state) {
  ObsRegistry::Instance().Enable(ObsOptions{});
  for (auto _ : state) {
    DSPOT_COUNT("bench.armed.counter", 1);
  }
  ObsRegistry::Instance().Disable();
  ObsRegistry::Instance().Reset();
}
BENCHMARK(BM_ObsCounterArmed);

void BM_ObsSpanArmed(benchmark::State& state) {
  ObsRegistry::Instance().Enable(ObsOptions{});  // metrics only, no trace
  for (auto _ : state) {
    DSPOT_SPAN("bench.armed.span");
    benchmark::ClobberMemory();
  }
  ObsRegistry::Instance().Disable();
  ObsRegistry::Instance().Reset();
}
BENCHMARK(BM_ObsSpanArmed);

// --- kernel-layer report (BENCH_micro.json) ---------------------------
//
// Direct chrono timings of the kernel layer plus the correctness verdicts
// the CI kernel job asserts on: the SIMD batch simulation must be
// bit-identical to the scalar recurrence, SIMD reductions must agree with
// a scalar left fold within the golden tolerance, and the analytic LM
// Jacobian must land on the same fit as the numeric one.

/// Best-of-`reps` wall-clock seconds of `fn` (best filters scheduler
/// noise better than the mean on a loaded CI box).
template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// SIMD batch SIV vs the scalar recurrence run lane by lane: speedup and
/// bit-identity over every (tick, lane) cell.
void AddSivBatchMetrics(bench::BenchJson* json) {
  constexpr size_t kCount = 64;
  constexpr size_t kTicks = 575;
  constexpr int kInner = 20;
  std::vector<double> population(kCount), beta(kCount), delta(kCount),
      gamma(kCount), i0(kCount);
  for (size_t l = 0; l < kCount; ++l) {
    const double f = static_cast<double>(l);
    population[l] = 150.0 + 2.0 * f;
    beta[l] = 0.3 + 0.005 * f;
    delta[l] = 0.2 + 0.004 * f;
    gamma[l] = 0.1 + 0.003 * f;
    i0[l] = 1.0 + 0.05 * f;
  }
  const kernels::SivBatchSoA batch{population.data(), beta.data(),
                                   delta.data(),      gamma.data(),
                                   i0.data(),         nullptr,
                                   nullptr};
  std::vector<double> batch_out(kTicks * kCount);
  std::vector<double> lane_out(kTicks);

  const double batch_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      kernels::SimulateSivBatchInto(batch, kCount, kTicks, batch_out.data());
      benchmark::DoNotOptimize(batch_out.data());
    }
  });
  const double scalar_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      for (size_t l = 0; l < kCount; ++l) {
        const kernels::SivParams p{population[l], beta[l], delta[l], gamma[l],
                                   i0[l]};
        kernels::SimulateSivScalarInto(p, {}, {}, lane_out);
        benchmark::DoNotOptimize(lane_out.data());
      }
    }
  });

  kernels::SimulateSivBatchInto(batch, kCount, kTicks, batch_out.data());
  bool bit_identical = true;
  for (size_t l = 0; l < kCount; ++l) {
    const kernels::SivParams p{population[l], beta[l], delta[l], gamma[l],
                               i0[l]};
    kernels::SimulateSivScalarInto(p, {}, {}, lane_out);
    for (size_t t = 0; t < kTicks; ++t) {
      if (batch_out[t * kCount + l] != lane_out[t]) bit_identical = false;
    }
  }

  const double speedup = scalar_secs / batch_secs;
  json->Set("siv_batch_speedup", speedup);
  json->Set("siv_batch_bit_identical", bit_identical ? 1.0 : 0.0);
  std::printf("kernel: SIV batch x%zu  speedup %.2fx  bit-identical %s\n",
              kCount, speedup, bit_identical ? "yes" : "NO");
}

/// The cost of one batch at 1, 3, 4 and 8 lanes, in scalar runs: how much
/// a lock-step LM round or a scan pays for its lanes. At n = 104 ticks, the
/// horizon of GLOBALFIT's LM residuals on the paper-sized workloads.
void AddSivBatchLanesCost(bench::BenchJson* json) {
  constexpr size_t kTicks = 104;
  constexpr int kInner = 2000;
  std::vector<double> eps(kTicks, 1.0);
  for (size_t t = 30; t < 33; ++t) eps[t] = 6.0;
  const kernels::SivParams p{220.0, 0.55, 0.42, 0.3, 1.5};
  std::vector<double> out(kTicks * 8);
  const double scalar_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      kernels::SimulateSivScalarInto(p, eps, {},
                                     std::span<double>(out).first(kTicks));
      benchmark::DoNotOptimize(out.data());
    }
  });
  std::printf("kernel: SIV batch cost in scalar runs (n = %zu) ", kTicks);
  for (const size_t lanes : {1ul, 3ul, 4ul, 8ul}) {
    std::vector<double> soa(5 * lanes), eps_soa(kTicks * lanes);
    for (size_t l = 0; l < lanes; ++l) {
      const double f = static_cast<double>(l);
      const double lane_params[5] = {p.population + f, p.beta, p.delta,
                                     p.gamma, p.i0};
      for (size_t k = 0; k < 5; ++k) soa[k * lanes + l] = lane_params[k];
      for (size_t t = 0; t < kTicks; ++t) eps_soa[t * lanes + l] = eps[t];
    }
    const double* q = soa.data();
    const kernels::SivBatchSoA batch{q,         q + lanes,      q + 2 * lanes,
                                     q + 3 * lanes, q + 4 * lanes,
                                     eps_soa.data(), nullptr};
    const double batch_secs = BestSeconds(5, [&] {
      for (int it = 0; it < kInner; ++it) {
        kernels::SimulateSivBatchInto(batch, lanes, kTicks, out.data());
        benchmark::DoNotOptimize(out.data());
      }
    });
    const double cost = batch_secs / scalar_secs;
    json->Set("siv_batch_lanes_cost_" + std::to_string(lanes), cost);
    std::printf(" %zu lanes %.2f", lanes, cost);
  }
  std::printf("\n");
}

/// The fused normal-equations pass vs its reference (SivJacobianInto,
/// then GramInto and TransposedTimesInto) on one LM-sized problem with
/// shocks, growth and a gappy observed list: speedup and bit-identity.
void AddSivNormalEquationsMetrics(bench::BenchJson* json) {
  constexpr size_t kTicks = 104;
  constexpr int kInner = 2000;
  const kernels::SivParams p{220.0, 0.55, 0.42, 0.3, 1.5};
  std::vector<double> eps(kTicks, 1.0), eta(kTicks, 0.0);
  for (size_t t = 30; t < 33; ++t) eps[t] = 6.0;
  for (size_t t = 60; t < kTicks; ++t) eta[t] = 0.4;
  std::vector<size_t> observed;
  for (size_t t = 0; t < kTicks; ++t) {
    if (t % 9 != 4) observed.push_back(t);
  }
  std::vector<double> residuals(observed.size());
  for (size_t k = 0; k < residuals.size(); ++k) {
    residuals[k] = std::sin(0.37 * static_cast<double>(k));
  }
  Matrix jac(observed.size(), kernels::kSivNumParams);
  Matrix jtj_ref;
  std::vector<double> jtr_ref(kernels::kSivNumParams);
  auto reference = [&] {
    kernels::SivJacobianInto(p, eps, eta, observed, kTicks, jac.MutableData(),
                             kernels::kSivNumParams);
    jac.GramInto(&jtj_ref);
    jac.TransposedTimesInto(residuals, jtr_ref);
  };
  double jtj[kernels::kSivNumParams * kernels::kSivNumParams];
  double jtr[kernels::kSivNumParams];
  auto fused = [&] {
    kernels::SivNormalEquationsInto(p, eps, eta, observed, residuals, kTicks,
                                    jtj, jtr);
  };
  const double reference_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      reference();
      benchmark::DoNotOptimize(jtr_ref.data());
    }
  });
  const double fused_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      fused();
      benchmark::DoNotOptimize(jtr);
    }
  });
  reference();
  fused();
  bool bit_identical = true;
  for (size_t i = 0; i < kernels::kSivNumParams; ++i) {
    if (jtr[i] != jtr_ref[i]) bit_identical = false;
    for (size_t j = 0; j < kernels::kSivNumParams; ++j) {
      if (jtj[i * kernels::kSivNumParams + j] != jtj_ref(i, j)) {
        bit_identical = false;
      }
    }
  }
  const double speedup = reference_secs / fused_secs;
  json->Set("siv_normal_equations_speedup", speedup);
  json->Set("siv_normal_equations_bit_identical", bit_identical ? 1.0 : 0.0);
  std::printf(
      "kernel: SIV normal equations fused vs Jacobian+Gram  speedup %.2fx  "
      "bit-identical %s\n",
      speedup, bit_identical ? "yes" : "NO");
}

/// A run split at every tick into a prefix plus a resume (scalar), and a
/// batch resumed from those prefix states, against the full scalar run.
void AddSivResumeMetrics(bench::BenchJson* json) {
  constexpr size_t kTicks = 120;
  constexpr size_t kLanes = 7;
  bool bit_identical = true;
  for (size_t l = 0; l < kLanes; ++l) {
    const double f = static_cast<double>(l);
    const kernels::SivParams p{150.0 + 20.0 * f, 0.3 + 0.07 * f,
                               0.2 + 0.05 * f, 0.1 + 0.04 * f, 1.0 + f};
    std::vector<double> eps(kTicks), full(kTicks), split(kTicks);
    for (size_t t = 0; t < kTicks; ++t) {
      eps[t] = 1.0 + 4.0 * (t % (11 + l) == 0 ? 1.0 : 0.0);
    }
    kernels::SimulateSivScalarInto(p, eps, {}, full);
    for (size_t t0 = 0; t0 <= kTicks; ++t0) {
      kernels::SivState state = kernels::SivInitialState(p);
      const std::span<const double> e(eps);
      kernels::ResumeSivScalarInto(p, e.first(t0), {}, &state,
                                   std::span<double>(split).first(t0));
      kernels::ResumeSivScalarInto(p, e.subspan(t0), {}, &state,
                                   std::span<double>(split).subspan(t0));
      if (split != full) bit_identical = false;
    }
    // The same lane resumed at tick 40 inside a batch of kLanes copies.
    const size_t t0 = 40;
    kernels::SivState state = kernels::SivInitialState(p);
    kernels::ResumeSivScalarInto(p, std::span<const double>(eps).first(t0), {},
                                 &state, std::span<double>(split).first(t0));
    std::vector<double> beta(kLanes, p.beta), delta(kLanes, p.delta),
        gamma(kLanes, p.gamma), n(kLanes, state.n), s(kLanes, state.s),
        i(kLanes, state.i), v(kLanes, state.v);
    std::vector<double> eps_soa((kTicks - t0) * kLanes);
    for (size_t k = 0; k < kTicks - t0; ++k) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        eps_soa[k * kLanes + lane] = eps[t0 + k];
      }
    }
    std::vector<double> out((kTicks - t0) * kLanes);
    const kernels::SivBatchSoA batch{nullptr, beta.data(), delta.data(),
                                     gamma.data(), nullptr, eps_soa.data(),
                                     nullptr};
    kernels::ResumeSivBatchInto(batch, {n.data(), s.data(), i.data(), v.data()},
                                kLanes, kTicks - t0, out.data());
    for (size_t k = 0; k < kTicks - t0; ++k) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        if (out[k * kLanes + lane] != full[t0 + k]) bit_identical = false;
      }
    }
  }
  json->Set("siv_resume_bit_identical", bit_identical ? 1.0 : 0.0);
  std::printf("kernel: SIV resume (scalar at every tick, batch)  "
              "bit-identical %s\n",
              bit_identical ? "yes" : "NO");
}

/// SIMD reductions vs scalar left folds: speedup plus the relative
/// deviation, which must stay inside kernels::simd::-style tolerance.
void AddReduceMetrics(bench::BenchJson* json) {
  constexpr size_t kN = 1 << 16;
  constexpr int kInner = 100;
  std::vector<double> actual(kN), estimate(kN), residuals(kN);
  for (size_t i = 0; i < kN; ++i) {
    const double x = static_cast<double>(i);
    actual[i] = 10.0 + 3.0 * std::sin(0.37 * x);
    estimate[i] = actual[i] + 0.25 * std::cos(0.11 * x);
    residuals[i] = actual[i] - estimate[i];
  }
  for (size_t i = 0; i < kN; i += 97) actual[i] = kMissingValue;

  double simd_sum = 0.0;
  const double simd_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      simd_sum = kernels::SumSquares(residuals);
      benchmark::DoNotOptimize(simd_sum);
    }
  });
  double scalar_sum = 0.0;
  const double scalar_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      double acc = 0.0;
      for (const double r : residuals) acc += r * r;
      scalar_sum = acc;
      benchmark::DoNotOptimize(scalar_sum);
    }
  });
  const double rel_err =
      std::fabs(simd_sum - scalar_sum) / std::max(std::fabs(scalar_sum), 1.0);
  const double sumsq_speedup = scalar_secs / simd_secs;

  kernels::MaskedMoments simd_moments;
  const double moments_simd_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      simd_moments = kernels::MaskedResidualMoments(actual, estimate);
      benchmark::DoNotOptimize(simd_moments);
    }
  });
  double scalar_count = 0.0, scalar_msum = 0.0;
  const double moments_scalar_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) {
      double count = 0.0, sum = 0.0;
      for (size_t i = 0; i < kN; ++i) {
        const double r = actual[i] - estimate[i];
        if (!std::isfinite(r)) continue;
        count += 1.0;
        sum += r;
      }
      scalar_count = count;
      scalar_msum = sum;
      benchmark::DoNotOptimize(scalar_msum);
    }
  });
  const double moments_speedup = moments_scalar_secs / moments_simd_secs;
  const double moments_rel_err =
      std::fabs(simd_moments.sum - scalar_msum) /
      std::max(std::fabs(scalar_msum), 1.0);
  const bool within_tol = rel_err <= simd::kReduceRelTol * 1e3 &&
                          moments_rel_err <= simd::kReduceRelTol * 1e3 &&
                          simd_moments.count == scalar_count;

  json->Set("sumsq_speedup", sumsq_speedup);
  json->Set("sumsq_rel_err", rel_err);
  json->Set("residual_moments_speedup", moments_speedup);
  json->Set("reduce_within_tolerance", within_tol ? 1.0 : 0.0);
  std::printf(
      "kernel: reductions  sumsq %.2fx (rel err %.2e)  moments %.2fx  "
      "within-tolerance %s\n",
      sumsq_speedup, rel_err, moments_speedup, within_tol ? "yes" : "NO");
}

/// Analytic (fused normal equations) vs numeric (forward-difference) LM
/// derivatives on a canonical SIV recovery problem: iteration counts and
/// whether the two modes land on the same fit within golden tolerance.
void AddLmJacobianMetrics(bench::BenchJson* json) {
  constexpr size_t kTicks = 104;
  const kernels::SivParams truth{200.0, 0.5, 0.45, 0.5, 1.0};
  std::vector<double> data(kTicks);
  kernels::SimulateSivScalarInto(truth, {}, {}, data);

  std::vector<double> est(kTicks);
  ResidualIntoFn residual_fn = [&](std::span<const double> p,
                                   std::span<double> r) -> Status {
    const kernels::SivParams sp{p[0], p[1], p[2], p[3], p[4]};
    kernels::SimulateSivScalarInto(sp, {}, {}, est);
    for (size_t t = 0; t < kTicks; ++t) r[t] = est[t] - data[t];
    return Status::Ok();
  };
  std::vector<size_t> observed(kTicks);
  std::iota(observed.begin(), observed.end(), size_t{0});

  Bounds bounds;
  bounds.lower = {50.0, 1e-3, 1e-3, 1e-3, 0.1};
  bounds.upper = {1000.0, 2.0, 1.0, 1.0, 10.0};
  const std::vector<double> init = {150.0, 0.4, 0.3, 0.4, 2.0};
  LmWorkspace ws;

  LmOptions numeric_options;
  numeric_options.max_iterations = 300;
  const auto numeric = LevenbergMarquardt(residual_fn, kTicks, init, bounds,
                                          numeric_options, &ws);
  LmOptions analytic_options;
  analytic_options.max_iterations = 300;
  analytic_options.normal_equations =
      [&](std::span<const double> p, std::span<const double> r, Matrix* jtj,
          std::span<double> jtr) -> Status {
    const kernels::SivParams sp{p[0], p[1], p[2], p[3], p[4]};
    kernels::SivNormalEquationsInto(sp, {}, {}, observed, r, kTicks,
                                    jtj->MutableData(), jtr.data());
    return Status::Ok();
  };
  const auto analytic = LevenbergMarquardt(residual_fn, kTicks, init, bounds,
                                           analytic_options, &ws);
  if (!numeric.ok() || !analytic.ok()) {
    std::fprintf(stderr, "kernel: LM jacobian comparison failed to fit\n");
    json->Set("lm_within_golden_tolerance", 0.0);
    return;
  }
  double param_rel_diff = 0.0;
  for (size_t k = 0; k < numeric->params.size(); ++k) {
    const double scale = std::max(std::fabs(numeric->params[k]), 1e-9);
    param_rel_diff = std::max(
        param_rel_diff,
        std::fabs(numeric->params[k] - analytic->params[k]) / scale);
  }
  // "Same fit" is judged on the fitted trajectory, not raw parameters: the
  // SIV likelihood has a population/i0 ridge, so two optima can predict the
  // same series with visibly different parameter vectors. The golden
  // tolerance (1e-4 of the data scale, same as the fit-level tests) applies
  // to the trajectory difference and to each mode's residual RMSE.
  auto rmse_of = [&](const std::vector<double>& p) {
    const kernels::SivParams sp{p[0], p[1], p[2], p[3], p[4]};
    std::vector<double> sim(kTicks);
    kernels::SimulateSivScalarInto(sp, {}, {}, sim);
    double ss = 0.0;
    for (size_t t = 0; t < kTicks; ++t) {
      const double r = sim[t] - data[t];
      ss += r * r;
    }
    return std::make_pair(std::sqrt(ss / static_cast<double>(kTicks)), sim);
  };
  const auto [rmse_numeric, sim_numeric] = rmse_of(numeric->params);
  const auto [rmse_analytic, sim_analytic] = rmse_of(analytic->params);
  double data_scale = 1.0;
  for (double v : data) data_scale = std::max(data_scale, std::fabs(v));
  double traj_diff = 0.0;
  for (size_t t = 0; t < kTicks; ++t) {
    traj_diff = std::max(traj_diff, std::fabs(sim_numeric[t] - sim_analytic[t]));
  }
  const double traj_rel_diff = traj_diff / data_scale;
  const bool within = traj_rel_diff <= 1e-4 &&
                      rmse_numeric <= 1e-4 * data_scale &&
                      rmse_analytic <= 1e-4 * data_scale;
  json->Set("lm_iterations_numeric", static_cast<double>(numeric->iterations));
  json->Set("lm_iterations_analytic",
            static_cast<double>(analytic->iterations));
  json->Set("lm_param_max_rel_diff", param_rel_diff);
  json->Set("lm_rmse_numeric", rmse_numeric);
  json->Set("lm_rmse_analytic", rmse_analytic);
  json->Set("lm_trajectory_rel_diff", traj_rel_diff);
  json->Set("lm_within_golden_tolerance", within ? 1.0 : 0.0);
  std::printf(
      "kernel: LM iters numeric %d analytic %d  rmse %.2e/%.2e  "
      "trajectory rel diff %.2e  within-tolerance %s\n",
      numeric->iterations, analytic->iterations, rmse_numeric, rmse_analytic,
      traj_rel_diff, within ? "yes" : "NO");
}

/// K SIV fits lock-stepped through LevenbergMarquardtLockstep, each
/// residual round one SimulateSivBatchInto call over the waiting points,
/// against the same K fits solved one after another: bit-identity of
/// every result, and the speedup.
void AddLmLockstepMetrics(bench::BenchJson* json) {
  constexpr size_t kTicks = 104;
  constexpr size_t kProblems = 4;
  constexpr int kInner = 20;
  struct Problem {
    std::vector<double> data;
    std::vector<double> eps;
    std::vector<double> initial;
    LmOptions options;
  };
  std::vector<size_t> observed(kTicks);
  std::iota(observed.begin(), observed.end(), size_t{0});
  Bounds bounds;
  bounds.lower = {50.0, 1e-3, 1e-3, 1e-3, 0.1};
  bounds.upper = {2000.0, 3.0, 1.0, 1.0, 20.0};
  std::vector<Problem> problems(kProblems);
  for (size_t k = 0; k < kProblems; ++k) {
    const double f = static_cast<double>(k);
    Problem& pr = problems[k];
    pr.eps.assign(kTicks, 1.0);
    for (size_t t = 20 + 15 * k; t < 23 + 15 * k; ++t) pr.eps[t] = 6.0;
    pr.data.resize(kTicks);
    kernels::SimulateSivScalarInto({250.0 + 80.0 * f, 0.5 + 0.1 * f, 0.4,
                                    0.3 - 0.05 * f, 1.0 + f},
                                   pr.eps, {}, pr.data);
    for (size_t t = 0; t < kTicks; ++t) {
      pr.data[t] += 0.5 * std::sin(0.7 * static_cast<double>(t) + f);
    }
    pr.initial = {200.0, 0.4 + 0.1 * f, 0.3, 0.2, 2.0};
    pr.options.normal_equations =
        [eps = std::span<const double>(pr.eps), &observed](
            std::span<const double> p, std::span<const double> r, Matrix* jtj,
            std::span<double> jtr) -> Status {
      kernels::SivNormalEquationsInto({p[0], p[1], p[2], p[3], p[4]}, eps, {},
                                      observed, r, kTicks, jtj->MutableData(),
                                      jtr.data());
      return Status::Ok();
    };
  }
  std::vector<double> sim(kTicks);
  const auto residuals_of = [&](size_t k, std::span<const double> sim_k,
                                std::span<double> r) {
    for (size_t t = 0; t < kTicks; ++t) r[t] = sim_k[t] - problems[k].data[t];
  };
  std::vector<LmWorkspace> workspaces(kProblems);
  const auto serial = [&] {
    std::vector<StatusOr<LmResult>> results;
    for (size_t k = 0; k < kProblems; ++k) {
      ResidualIntoFn fn = [&, k](std::span<const double> p,
                                 std::span<double> r) {
        kernels::SimulateSivScalarInto({p[0], p[1], p[2], p[3], p[4]},
                                       problems[k].eps, {}, sim);
        residuals_of(k, sim, r);
        return Status::Ok();
      };
      results.push_back(LevenbergMarquardt(fn, kTicks, problems[k].initial,
                                           bounds, problems[k].options,
                                           &workspaces[k]));
    }
    return results;
  };
  std::vector<double> soa(5 * kProblems), eps_soa(kTicks * kProblems),
      out(kTicks * kProblems);
  const auto lockstep = [&] {
    std::vector<LmProblem> group;
    for (size_t k = 0; k < kProblems; ++k) {
      group.push_back({problems[k].initial, kTicks, &bounds,
                       &problems[k].options, &workspaces[k]});
    }
    return LevenbergMarquardtLockstep(
        group, [&](std::span<LmResidualRequest> requests) {
          const size_t lanes = requests.size();
          for (size_t l = 0; l < lanes; ++l) {
            for (size_t p = 0; p < 5; ++p) {
              soa[p * lanes + l] = requests[l].params[p];
            }
            for (size_t t = 0; t < kTicks; ++t) {
              eps_soa[t * lanes + l] = problems[requests[l].problem].eps[t];
            }
          }
          const double* q = soa.data();
          const kernels::SivBatchSoA batch{
              q,          q + lanes,  q + 2 * lanes, q + 3 * lanes,
              q + 4 * lanes, eps_soa.data(), nullptr};
          kernels::SimulateSivBatchInto(batch, lanes, kTicks, out.data());
          for (size_t l = 0; l < lanes; ++l) {
            for (size_t t = 0; t < kTicks; ++t) sim[t] = out[t * lanes + l];
            residuals_of(requests[l].problem, sim, requests[l].residuals);
          }
        });
  };
  const std::vector<StatusOr<LmResult>> a = serial();
  const std::vector<StatusOr<LmResult>> b = lockstep();
  bool bit_identical = a.size() == b.size();
  for (size_t k = 0; bit_identical && k < a.size(); ++k) {
    bit_identical = a[k].ok() && b[k].ok() && a[k]->params == b[k]->params &&
                    a[k]->final_cost == b[k]->final_cost &&
                    a[k]->iterations == b[k]->iterations &&
                    a[k]->health.restarts == b[k]->health.restarts &&
                    a[k]->health.termination == b[k]->health.termination;
  }
  const double serial_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) benchmark::DoNotOptimize(serial());
  });
  const double lockstep_secs = BestSeconds(5, [&] {
    for (int it = 0; it < kInner; ++it) benchmark::DoNotOptimize(lockstep());
  });
  const double speedup = serial_secs / lockstep_secs;
  json->Set("lm_lockstep_speedup", speedup);
  json->Set("lm_lockstep_bit_identical", bit_identical ? 1.0 : 0.0);
  std::printf(
      "kernel: LM lock-step x%zu vs serial  speedup %.2fx  bit-identical %s\n",
      kProblems, speedup, bit_identical ? "yes" : "NO");
}

void WriteKernelReport() {
  bench::BenchJson json("micro");
  json.Set("simd_isa", std::string(kernels::SimdIsaName()));
  json.Set("simd_lanes", static_cast<double>(kernels::SimdNumLanes()));
  AddSivBatchMetrics(&json);
  AddSivBatchLanesCost(&json);
  AddSivNormalEquationsMetrics(&json);
  AddSivResumeMetrics(&json);
  AddReduceMetrics(&json);
  AddLmJacobianMetrics(&json);
  AddLmLockstepMetrics(&json);
  if (json.WriteTo("BENCH_micro.json")) {
    std::printf("wrote BENCH_micro.json\n");
  }
}

}  // namespace
}  // namespace dspot

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dspot::WriteKernelReport();
  return 0;
}
