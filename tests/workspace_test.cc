// Regression tests for the zero-allocation workspace pipeline:
//
//  * bit-identity between the buffer-writing kernels and the allocating
//    wrappers they replaced on the hot paths (SimulateSivScalarInto vs
//    SimulateSiv, workspace LevenbergMarquardt vs the allocating overload,
//    workspace TotalCostBits vs the plain one);
//  * ScheduleCache serves exactly what the builders produce and rebuilds
//    when its inputs change;
//  * an operator-new counting hook proving that warm workspace-based LM
//    iterations and SimulateSivScalarInto calls allocate nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/cost.h"
#include "core/params.h"
#include "core/schedule_cache.h"
#include "core/shock.h"
#include "core/simulate.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "optimize/levenberg_marquardt.h"
#include "timeseries/series.h"

// --- Global operator-new counting hook --------------------------------
//
// Counts every scalar/array heap allocation while enabled. Only the six
// non-aligned forms are replaced; they stay malloc/free-compatible with
// the library defaults, and nothing in the solver uses over-aligned
// types. The counter is process-wide, so counted regions must not run
// concurrently with other allocating threads (all counted tests below
// run the solver serially).

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

// GCC cannot see that the replaced operator new below is malloc-based, so
// it flags the free() in the matching operator delete; the pairing is the
// standard malloc/free replacement pattern and is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace dspot {
namespace {

/// RAII window that zeroes the counter on entry and reads it on exit.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocation_count.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { g_count_allocations.store(false, std::memory_order_relaxed); }
  std::size_t count() const {
    return g_allocation_count.load(std::memory_order_relaxed);
  }
};

// --- Shared fixtures ---------------------------------------------------

/// Deterministic pseudo-noise in [-0.5, 0.5) from a tiny LCG; keeps the
/// test data reproducible without <random> (whose distributions are not
/// specified bit-for-bit across standard libraries).
double Noise(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>((*state >> 33) & 0xFFFFFF) / 16777216.0 - 0.5;
}

/// Synthetic observations of y = a * exp(-b * t) + c with noise, the
/// classic nonlinear least-squares benchmark for the LM identity tests.
std::vector<double> ExpDecayData(size_t m) {
  std::vector<double> data(m);
  uint64_t state = 42;
  for (size_t t = 0; t < m; ++t) {
    data[t] = 5.0 * std::exp(-0.35 * static_cast<double>(t)) + 1.5 +
              0.05 * Noise(&state);
  }
  return data;
}

void ExpDecayResiduals(std::span<const double> p,
                       std::span<const double> data, std::span<double> r) {
  for (size_t t = 0; t < data.size(); ++t) {
    r[t] = p[0] * std::exp(-p[1] * static_cast<double>(t)) + p[2] - data[t];
  }
}

/// A parameter set with shocks + growth covering every schedule branch.
ModelParamSet TestParams(size_t n_ticks) {
  ModelParamSet params;
  params.num_keywords = 1;
  params.num_locations = 1;
  params.num_ticks = n_ticks;
  params.global.resize(1);
  params.global[0].population = 800.0;
  params.global[0].beta = 0.3;
  params.global[0].delta = 0.12;
  params.global[0].gamma = 0.04;
  params.global[0].i0 = 2.0;
  params.global[0].growth_rate = 0.01;
  params.global[0].growth_start = n_ticks / 3;
  Shock annual;
  annual.keyword = 0;
  annual.period = 52;
  annual.start = 10;
  annual.width = 3;
  annual.base_strength = 1.4;
  annual.global_strengths = {1.4, 2.0, 1.1};
  Shock oneshot;
  oneshot.keyword = 0;
  oneshot.period = Shock::kNonCyclic;
  oneshot.start = 80;
  oneshot.width = 5;
  oneshot.base_strength = 3.0;
  oneshot.global_strengths = {3.0};
  params.shocks = {annual, oneshot};
  return params;
}

// --- Bit-identity: simulate kernels -----------------------------------

TEST(WorkspaceIdentity, SimulateSivIntoMatchesSimulateSiv) {
  const size_t n = 160;
  SivInputs inputs;
  inputs.population = 500.0;
  inputs.beta = 0.4;
  inputs.delta = 0.15;
  inputs.gamma = 0.05;
  inputs.i0 = 3.0;
  inputs.epsilon.assign(n, 1.0);
  for (size_t t = 30; t < 36; ++t) inputs.epsilon[t] += 2.5;
  inputs.eta = BuildEta(0.02, 40, n);

  const Series reference = SimulateSiv(inputs, n);

  const kernels::SivParams params{inputs.population, inputs.beta,
                                  inputs.delta, inputs.gamma, inputs.i0};
  std::vector<double> buffer(n);
  kernels::SimulateSivScalarInto(params, inputs.epsilon, inputs.eta, buffer);
  ASSERT_EQ(reference.size(), buffer.size());
  for (size_t t = 0; t < n; ++t) {
    EXPECT_EQ(reference[t], buffer[t]) << "tick " << t;
  }

  // Empty schedules mean eps = 1 / eta = 0, same as the wrapper's default.
  SivInputs plain = inputs;
  plain.epsilon.clear();
  plain.eta.clear();
  const Series plain_reference = SimulateSiv(plain, n);
  kernels::SimulateSivScalarInto(params, {}, {}, buffer);
  for (size_t t = 0; t < n; ++t) {
    EXPECT_EQ(plain_reference[t], buffer[t]) << "tick " << t;
  }
}

TEST(WorkspaceIdentity, SimulateGlobalIntoMatchesSimulateGlobal) {
  const size_t n = 156;
  ModelParamSet params = TestParams(n);

  const Series reference = SimulateGlobal(params, 0, n);
  ScheduleCache cache;
  std::vector<double> buffer(n);
  SimulateGlobalInto(params, 0, &cache, buffer);
  for (size_t t = 0; t < n; ++t) {
    EXPECT_EQ(reference[t], buffer[t]) << "tick " << t;
  }

  // Second call hits the memoized schedules; output must not change.
  std::vector<double> again(n);
  SimulateGlobalInto(params, 0, &cache, again);
  EXPECT_EQ(buffer, again);

  // Mutating a strength must invalidate the cached epsilon schedule.
  params.shocks[0].global_strengths[1] = 5.0;
  const Series mutated_reference = SimulateGlobal(params, 0, n);
  SimulateGlobalInto(params, 0, &cache, buffer);
  for (size_t t = 0; t < n; ++t) {
    EXPECT_EQ(mutated_reference[t], buffer[t]) << "tick " << t;
  }
}

TEST(WorkspaceIdentity, ScheduleCacheMatchesBuilders) {
  const size_t n = 120;
  ModelParamSet params = TestParams(n);
  ScheduleCache cache;

  const std::vector<double> eps_ref =
      BuildGlobalEpsilon(params.shocks, 0, n);
  std::span<const double> eps = cache.GlobalEpsilon(params.shocks, 0, n);
  ASSERT_EQ(eps.size(), eps_ref.size());
  for (size_t t = 0; t < n; ++t) EXPECT_EQ(eps[t], eps_ref[t]);

  const std::vector<double> eta_ref = BuildEta(0.01, n / 3, n);
  std::span<const double> eta = cache.Eta(0.01, n / 3, n);
  ASSERT_EQ(eta.size(), eta_ref.size());
  for (size_t t = 0; t < eta.size(); ++t) EXPECT_EQ(eta[t], eta_ref[t]);

  // Disabled growth stays an empty schedule through the cache too.
  EXPECT_TRUE(cache.Eta(0.0, 10, n).empty());
  EXPECT_TRUE(cache.Eta(0.5, kNpos, n).empty());

  // A changed shock set must rebuild, not serve the stale slot.
  params.shocks[1].base_strength = 7.0;
  params.shocks[1].global_strengths = {7.0};
  const std::vector<double> eps_ref2 =
      BuildGlobalEpsilon(params.shocks, 0, n);
  std::span<const double> eps2 = cache.GlobalEpsilon(params.shocks, 0, n);
  for (size_t t = 0; t < n; ++t) EXPECT_EQ(eps2[t], eps_ref2[t]);
}

// --- Bit-identity: Levenberg-Marquardt --------------------------------

TEST(WorkspaceIdentity, WorkspaceLmMatchesAllocatingLm) {
  const std::vector<double> data = ExpDecayData(48);
  const std::vector<double> initial = {1.0, 0.05, 0.0};
  Bounds bounds;
  bounds.lower = {0.0, 0.0, -10.0};
  bounds.upper = {50.0, 5.0, 10.0};
  LmOptions options;

  ResidualFn allocating_fn = [&data](const std::vector<double>& p,
                                     std::vector<double>* r) {
    r->resize(data.size());
    ExpDecayResiduals(p, data, *r);
    return Status::Ok();
  };
  auto allocating = LevenbergMarquardt(allocating_fn, initial, bounds, options);
  ASSERT_TRUE(allocating.ok()) << allocating.status().ToString();

  ResidualIntoFn into_fn = [&data](std::span<const double> p,
                                   std::span<double> r) {
    ExpDecayResiduals(p, data, r);
    return Status::Ok();
  };
  LmWorkspace workspace;
  auto ws = LevenbergMarquardt(into_fn, data.size(), initial, bounds, options,
                               &workspace);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();

  EXPECT_TRUE(ws->converged);
  ASSERT_EQ(allocating->params.size(), ws->params.size());
  for (size_t k = 0; k < ws->params.size(); ++k) {
    EXPECT_EQ(allocating->params[k], ws->params[k]) << "param " << k;
  }
  EXPECT_EQ(allocating->final_cost, ws->final_cost);
  EXPECT_EQ(allocating->initial_cost, ws->initial_cost);
  EXPECT_EQ(allocating->iterations, ws->iterations);
  EXPECT_EQ(allocating->converged, ws->converged);

  // Reusing the (now differently-shaped) workspace must not perturb a
  // second solve: re-running yields the exact same solution.
  auto again = LevenbergMarquardt(into_fn, data.size(), initial, bounds,
                                  options, &workspace);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->params, ws->params);
  EXPECT_EQ(again->final_cost, ws->final_cost);
}

// --- Bit-identity: workspace TotalCostBits ----------------------------

TEST(WorkspaceIdentity, TotalCostBitsWorkspaceMatchesAllocating) {
  GeneratorConfig config = GoogleTrendsConfig(7);
  config.n_ticks = 104;
  config.num_locations = 3;
  auto generated = GenerateTensor({GrammyScenario()}, config);
  ASSERT_TRUE(generated.ok());

  ModelParamSet params = TestParams(config.n_ticks);
  params.num_locations = config.num_locations;

  const double reference = TotalCostBits(generated->tensor, params);
  CostWorkspace workspace;
  const double with_workspace =
      TotalCostBits(generated->tensor, params, &workspace);
  EXPECT_EQ(reference, with_workspace);

  // Warm reuse of the same workspace stays identical.
  EXPECT_EQ(reference, TotalCostBits(generated->tensor, params, &workspace));
}

// --- Allocation guards -------------------------------------------------

TEST(WorkspaceAllocation, WarmSimulateSivIntoAllocatesNothing) {
  const size_t n = 200;
  std::vector<double> epsilon(n, 1.0);
  for (size_t t = 50; t < 55; ++t) epsilon[t] += 2.0;
  const std::vector<double> eta = BuildEta(0.015, 60, n);
  const kernels::SivParams params{600.0, 0.35, 0.1, 0.05, 2.0};
  std::vector<double> out(n);

  kernels::SimulateSivScalarInto(params, epsilon, eta, out);  // warm-up

  AllocationCounter counter;
  for (int rep = 0; rep < 100; ++rep) {
    kernels::SimulateSivScalarInto(params, epsilon, eta, out);
  }
  EXPECT_EQ(counter.count(), 0u);
}

TEST(WorkspaceAllocation, WarmLmIterationsAllocateNothing) {
  const std::vector<double> data = ExpDecayData(48);
  // Start far from the optimum with all tolerances off, so the solver
  // performs exactly max_iterations accepted steps in both runs below.
  const std::vector<double> initial = {0.5, 0.01, 0.0};
  Bounds bounds;
  bounds.lower = {0.0, 0.0, -10.0};
  bounds.upper = {50.0, 5.0, 10.0};
  LmOptions options;
  options.cost_tolerance = 0.0;
  options.step_tolerance = 0.0;
  options.gradient_tolerance = 0.0;

  ResidualIntoFn into_fn = [&data](std::span<const double> p,
                                   std::span<double> r) {
    ExpDecayResiduals(p, data, r);
    return Status::Ok();
  };
  LmWorkspace workspace;

  // Warm the workspace at the largest iteration budget used below.
  options.max_iterations = 8;
  auto warmup = LevenbergMarquardt(into_fn, data.size(), initial, bounds,
                                   options, &workspace);
  ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
  ASSERT_EQ(warmup->iterations, 8);

  const auto count_solve = [&](int max_iterations) {
    options.max_iterations = max_iterations;
    AllocationCounter counter;
    auto result = LevenbergMarquardt(into_fn, data.size(), initial, bounds,
                                     options, &workspace);
    const std::size_t count = counter.count();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->iterations, max_iterations);
    return count;
  };

  const std::size_t short_solve = count_solve(2);
  const std::size_t long_solve = count_solve(8);

  // The per-solve overhead (returning LmResult::params) is constant; the
  // six extra iterations of the long solve must allocate nothing.
  EXPECT_EQ(long_solve, short_solve)
      << "steady-state LM iterations allocate (short=" << short_solve
      << ", long=" << long_solve << ")";
}

}  // namespace
}  // namespace dspot
