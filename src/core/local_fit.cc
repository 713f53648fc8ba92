#include "core/local_fit.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/cost.h"
#include "core/simulate.h"
#include "guard/fault_injector.h"
#include "mdl/mdl.h"
#include "obs/metrics.h"
#include "optimize/line_search.h"
#include "parallel/parallel_for.h"
#include "timeseries/metrics.h"

namespace dspot {

namespace {

/// Upper bound for a local shock strength.
constexpr double kMaxLocalStrength = 50.0;
/// Minimum relative improvement for another sweep.
constexpr double kMinCostDecrease = 1e-4;

/// Working copy of one (keyword, location) local model: the global
/// dynamics plus this location's population, growth rate and strength
/// columns.
struct LocalState {
  const Series* data = nullptr;
  const KeywordGlobalParams* global = nullptr;
  /// This keyword's shocks (pointers into the shared shock list).
  std::vector<const Shock*> shocks;
  /// Candidate strengths: one vector per shock, one entry per occurrence.
  std::vector<std::vector<double>> strengths;
  double population = 1.0;
  double growth_rate = 0.0;
  size_t n = 0;
};

/// Per-location scratch: the schedule and simulation buffers the
/// coordinate descent cycles through. One instance per ParallelFor task,
/// so the hundreds of objective evaluations behind each (keyword,
/// location) fit reuse the same storage without cross-thread sharing.
struct LocalScratch {
  std::vector<double> epsilon;
  std::vector<double> eta;
  std::vector<double> estimate;
};

/// Simulates the local model into scratch->estimate and returns a view of
/// it (valid until the next call with the same scratch). The epsilon
/// schedule is rebuilt from the candidate strengths by windowed occurrence
/// sweeps, bit-identical to the per-tick OccurrenceIndexAt scan.
std::span<const double> SimulateLocalStateInto(const LocalState& state,
                                               LocalScratch* scratch) {
  kernels::SivParams dynamics = KernelParams(*state.global);
  dynamics.population = state.population;
  dynamics.i0 = state.global->i0 * state.population /
                std::max(state.global->population, 1e-9);
  scratch->epsilon.assign(state.n, 1.0);
  for (size_t k = 0; k < state.shocks.size(); ++k) {
    AddOccurrenceStrengthsInto(*state.shocks[k], state.strengths[k],
                               scratch->epsilon);
  }
  std::span<const double> eta;
  if (state.global->has_growth()) {
    BuildEtaInto(state.growth_rate, state.global->growth_start, state.n,
                 &scratch->eta);
    eta = scratch->eta;
  }
  scratch->estimate.resize(state.n);
  kernels::SimulateSivScalarInto(dynamics, scratch->epsilon, eta,
                                 scratch->estimate);
  return scratch->estimate;
}

double LocalStateRmse(const LocalState& state, LocalScratch* scratch) {
  return Rmse(std::span<const double>(state.data->values()),
              SimulateLocalStateInto(state, scratch));
}

size_t NonZeroStrengths(const LocalState& state) {
  size_t count = 0;
  for (const auto& v : state.strengths) {
    for (double s : v) {
      if (s != 0.0) ++count;
    }
  }
  return count;
}

double LocalStateCostBits(const LocalState& state, size_t d, size_t l,
                          LocalScratch* scratch) {
  return LocalSequenceCostBits(std::span<const double>(state.data->values()),
                               SimulateLocalStateInto(state, scratch),
                               NonZeroStrengths(state), d, l, state.n);
}

/// Fits one local sequence by coordinate descent; returns its final cost.
double FitOneLocal(LocalState* state, size_t d, size_t l,
                   LocalScratch* scratch) {
  const double peak = std::max(state->data->MaxValue(), 1e-3);

  // b^(L)_ij: local potential population.
  state->population = GridThenGoldenMinimize(
      [&](double pop) {
        state->population = pop;
        return LocalStateRmse(*state, scratch);
      },
      peak * 0.3, peak * 300.0, 40, 1e-3);

  // r^(L)_ij: local growth rate (only when the keyword has a growth term).
  if (state->global->has_growth()) {
    state->growth_rate = GuardedMinimize(
        [&](double rate) {
          state->growth_rate = rate;
          return LocalStateRmse(*state, scratch);
        },
        0.0, 4.0, state->growth_rate);
  }

  // Local participation strengths, one occurrence at a time.
  for (size_t k = 0; k < state->strengths.size(); ++k) {
    for (size_t m = 0; m < state->strengths[k].size(); ++m) {
      state->strengths[k][m] = GuardedMinimize(
          [&](double s) {
            state->strengths[k][m] = s;
            return LocalStateRmse(*state, scratch);
          },
          0.0, kMaxLocalStrength, state->strengths[k][m]);
    }
  }

  double cost = LocalStateCostBits(*state, d, l, scratch);

  // Sparsification: zero out strengths whose description cost exceeds
  // their coding benefit (makes s^(L) sparse, as in Definition 6).
  for (size_t k = 0; k < state->strengths.size(); ++k) {
    for (size_t m = 0; m < state->strengths[k].size(); ++m) {
      if (state->strengths[k][m] == 0.0) continue;
      const double saved = state->strengths[k][m];
      state->strengths[k][m] = 0.0;
      const double cost_without = LocalStateCostBits(*state, d, l, scratch);
      if (cost_without <= cost) {
        cost = cost_without;  // keep it zeroed
      } else {
        state->strengths[k][m] = saved;
      }
    }
  }
  return cost;
}

}  // namespace

Status LocalFit(const ActivityTensor& tensor, ModelParamSet* params,
                const LocalFitOptions& options, FitHealth* health) {
  DSPOT_SPAN("local_fit");
  const auto start_time = std::chrono::steady_clock::now();
  if (params == nullptr) {
    return Status::InvalidArgument("LocalFit: null params");
  }
  const size_t d = tensor.num_keywords();
  const size_t l = tensor.num_locations();
  const size_t n = tensor.num_ticks();
  if (params->global.size() != d || params->num_ticks != n) {
    return Status::FailedPrecondition(
        "LocalFit: parameter set does not match the tensor dimensions");
  }

  // Initialize B_L from observed volume shares, R_L from the global rate,
  // and every shock's local strengths from its global strengths.
  params->base_local = Matrix(d, l);
  params->growth_local = Matrix(d, l);
  for (Shock& shock : params->shocks) {
    const size_t occ = shock.global_strengths.size();
    shock.local_strengths = Matrix(occ, l);
    for (size_t m = 0; m < occ; ++m) {
      for (size_t j = 0; j < l; ++j) {
        shock.local_strengths(m, j) = shock.global_strengths[m];
      }
    }
  }

  double previous_total = std::numeric_limits<double>::infinity();
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  popts.cancel = options.guard.cancel;
  // Set by any location task whose guard check fails; read between
  // keywords/rounds to stop launching new work. Relaxed is enough — the
  // flag only gates progress, it carries no data.
  std::atomic<bool> interrupted{false};
  bool converged = false;
  int rounds_done = 0;
  for (int round = 0; round < options.max_rounds && !interrupted.load(
                          std::memory_order_relaxed);
       ++round) {
    DSPOT_SPAN("local_fit.round");
    DSPOT_COUNT("local_fit.rounds", 1);
    double total = 0.0;
    for (size_t i = 0; i < d; ++i) {
      if (interrupted.load(std::memory_order_relaxed)) break;
      const std::vector<size_t> shock_indices = params->ShockIndicesFor(i);
      const Series global_seq = tensor.GlobalSequence(i);
      const double global_volume = std::max(global_seq.SumValue(), 1e-9);
      // Locations are independent given the keyword's global fit: each
      // task reads shared state (global params, shock list, last round's
      // strengths) and writes only column j of the local matrices. Costs
      // land in per-location slots and are reduced in location order, so
      // the round total — and the convergence decision it drives — is
      // bit-identical at any thread count.
      std::vector<double> costs(l, 0.0);
      ParallelFor(l, popts, [&](size_t j) {
        const Series local_data = tensor.LocalSequence(i, j);

        LocalScratch scratch;
        LocalState state;
        state.data = &local_data;
        state.global = &params->global[i];
        state.n = n;
        for (size_t k : shock_indices) {
          state.shocks.push_back(&params->shocks[k]);
        }
        if (round == 0) {
          // Volume-share initialization.
          const double share =
              std::max(local_data.SumValue(), 0.0) / global_volume;
          state.population =
              std::max(params->global[i].population * share, 1e-3);
          state.growth_rate = params->global[i].growth_rate;
          for (size_t k : shock_indices) {
            state.strengths.push_back(params->shocks[k].global_strengths);
          }
        } else {
          // Warm start from the previous round.
          state.population = params->base_local(i, j);
          state.growth_rate = params->growth_local(i, j);
          for (size_t k : shock_indices) {
            const Shock& shock = params->shocks[k];
            std::vector<double> column(shock.local_strengths.rows());
            for (size_t m = 0; m < column.size(); ++m) {
              column[m] = shock.local_strengths(m, j);
            }
            state.strengths.push_back(std::move(column));
          }
        }

        // Guard checkpoint: an expired deadline (or fired token) skips
        // the refinement but still writes the state back, so first-round
        // locations keep their sane volume-share initialization instead
        // of zeroed matrix slots.
        bool fit_this_location = true;
        if (options.guard.active() || FaultInjector::Instance().armed()) {
          if (!options.guard.Check("LocalFit location").ok()) {
            interrupted.store(true, std::memory_order_relaxed);
            fit_this_location = false;
          }
        }
        if (fit_this_location) {
          DSPOT_SPAN("local_fit.location");
          DSPOT_COUNT("local_fit.locations", 1);
          costs[j] = FitOneLocal(&state, d, l, &scratch);
        }

        // Write back (disjoint per location: column j only).
        params->base_local(i, j) = state.population;
        params->growth_local(i, j) = state.growth_rate;
        for (size_t si = 0; si < shock_indices.size(); ++si) {
          Shock& shock = params->shocks[shock_indices[si]];
          for (size_t m = 0; m < state.strengths[si].size(); ++m) {
            shock.local_strengths(m, j) = state.strengths[si][m];
          }
        }
      });
      for (size_t j = 0; j < l; ++j) {
        total += costs[j];
      }
    }
    if (interrupted.load(std::memory_order_relaxed)) break;
    ++rounds_done;
    if (total >= previous_total * (1.0 - kMinCostDecrease)) {
      converged = true;
      break;
    }
    previous_total = total;
  }
  if (options.guard.cancel.cancelled()) {
    return Status::Cancelled("LocalFit: cancelled");
  }
  if (health) {
    health->iterations = rounds_done;
    health->restarts = 0;
    health->wall_time_ms = ElapsedMs(start_time);
    health->termination = interrupted.load(std::memory_order_relaxed)
                              ? FitTermination::kDeadlineExceeded
                              : (converged ? FitTermination::kConverged
                                           : FitTermination::kMaxIterations);
  }
  return Status::Ok();
}

}  // namespace dspot
