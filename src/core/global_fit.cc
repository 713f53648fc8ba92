#include "core/global_fit.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>

#include "core/cost.h"
#include "core/simulate.h"
#include "guard/fault_injector.h"
#include "kernels/siv_kernel.h"
#include "obs/metrics.h"
#include "optimize/levenberg_marquardt.h"
#include "optimize/line_search.h"
#include "parallel/parallel_for.h"
#include "timeseries/metrics.h"

namespace dspot {

namespace {

/// Bundles the state GLOBALFIT iterates on for one keyword.
struct FitState {
  Series data;
  size_t keyword = 0;
  size_t num_keywords = 1;
  size_t n = 0;
  double peak = 1.0;
  KeywordGlobalParams params;
  std::vector<Shock> shocks;
  CodingModel coding = CodingModel::kGaussian;
  /// Guard threaded into every LM solve below; inactive by default.
  GuardContext guard;
  /// Health that LM restarts are added to. Probe copies share the pointer,
  /// except a shock candidate's, which gets its own (see FitCandidate).
  FitHealth* health = nullptr;
};

/// Per-keyword scratch threaded through every helper below: the schedule
/// cache, the LM workspaces, and the simulation / residual-index buffers.
/// One instance per FitGlobalSequence call and one per shock-candidate
/// task (FitCandidate), so the alternation loop stays allocation-free once
/// warm without sharing mutable state across threads.
struct FitScratch {
  ScheduleCache schedules;
  /// One workspace per solve of a lock-step group (FitBaseParamsLockstep).
  std::vector<LmWorkspace> lm;
  /// Each state's eps / eta of a lock-step group, built once per group.
  std::vector<std::vector<double>> lane_eps;
  std::vector<std::vector<double>> lane_eta;
  std::vector<double> estimate;
  std::vector<size_t> observed;
  /// TailScan buffers: the scanned trajectory (shared prefix plus the
  /// latest evaluated tail) and one evaluation's schedule tails.
  std::vector<double> scan_estimate;
  std::vector<double> eps_tail;
  std::vector<double> eta_tail;
  /// SIMD-lane buffers of TailScan batches and of lock-step LM residual
  /// rounds (never live at once): SoA schedules and output ([tick * lanes
  /// + lane]) and per-lane scalars (TailScan: rates and start state, 7
  /// arrays of `lanes`; LM: the five SIV parameters, 5 arrays).
  std::vector<double> batch_eps;
  std::vector<double> batch_eta;
  std::vector<double> batch_out;
  std::vector<double> batch_lanes;
};

/// Simulates the state into scratch->estimate and returns a view of it.
/// The view is valid until the next simulation through the same scratch.
std::span<const double> SimulateStateInto(const FitState& state,
                                          FitScratch* scratch) {
  scratch->estimate.resize(state.n);
  const std::span<const double> epsilon =
      scratch->schedules.GlobalEpsilon(state.shocks, state.keyword, state.n);
  const std::span<const double> eta =
      state.params.has_growth()
          ? scratch->schedules.Eta(state.params.growth_rate,
                                   state.params.growth_start, state.n)
          : std::span<const double>();
  const SivDynamics dynamics{state.params.population, state.params.beta,
                             state.params.delta, state.params.gamma,
                             state.params.i0};
  SimulateSivInto(dynamics, epsilon, eta, scratch->estimate);
  return scratch->estimate;
}

/// Owning-Series variant for results that outlive the scratch.
Series SimulateStateSeries(const FitState& state, FitScratch* scratch) {
  const std::span<const double> estimate = SimulateStateInto(state, scratch);
  Series out(state.n);
  std::copy(estimate.begin(), estimate.end(), out.mutable_values().begin());
  return out;
}

double StateCostBits(const FitState& state, FitScratch* scratch) {
  return GlobalKeywordCostBits(std::span<const double>(state.data.values()),
                               SimulateStateInto(state, scratch), state.params,
                               state.shocks, state.keyword,
                               state.num_keywords, state.n, state.coding);
}

double StateRmse(const FitState& state, FitScratch* scratch) {
  return Rmse(std::span<const double>(state.data.values()),
              SimulateStateInto(state, scratch));
}

kernels::SivParams KernelParams(const KeywordGlobalParams& p) {
  return {p.population, p.beta, p.delta, p.gamma, p.i0};
}

/// Start tick of occurrence m of `shock`.
size_t OccurrenceStart(const Shock& shock, size_t m) {
  return shock.start + m * shock.period;
}

/// Evaluates a 1-d scan over one scalar of `*state` (a shock strength or
/// the growth rate) whose points share the simulation before some tick t0:
/// the prefix [0, t0) is simulated once into scratch->scan_estimate, with
/// the recurrence state at t0 and the RMSE partial sum over the prefix
/// kept, and every evaluation simulates only [t0, n) from that state, its
/// eps/eta tails built from the state as the scan's setter left it.
///
/// Bit-identical to simulating each point from tick 0: the prefix and the
/// tail run the recurrence's exact operation sequence split at t0, the
/// tail schedules hold the full schedules' values, the RMSE is a left fold
/// continued from its prefix sum, and the coding cost reduces over the
/// full estimate buffer. A batch evaluation runs all points as SIMD lanes
/// of kernels::ResumeSivBatchInto, which reproduce the scalar recurrence
/// for finite inputs; non-finite inputs take the scalar path.
///
/// The prefix only moves forward (AdvanceTo), so a sweep whose later
/// points start later — occurrence by occurrence, or over growth onsets —
/// simulates each prefix tick once, provided every change the sweep has
/// made lies at or after the prefix it has reached.
class TailScan {
 public:
  TailScan(FitState* state, FitScratch* scratch)
      : state_(state),
        scratch_(scratch),
        sim_state_(kernels::SivInitialState(KernelParams(state->params))) {
    scratch->scan_estimate.resize(state->n);
  }

  /// Extends the shared prefix to tick min(t0, n) with the state's current
  /// schedules, which must already be final for those ticks.
  void AdvanceTo(size_t t0) {
    t0 = std::min(t0, state_->n);
    if (t0 <= t0_) return;
    EpsTailInto(t0_, t0);
    EtaTailInto(t0_, t0);
    kernels::ResumeSivScalarInto(
        KernelParams(state_->params), scratch_->eps_tail, scratch_->eta_tail,
        &sim_state_,
        std::span<double>(scratch_->scan_estimate).subspan(t0_, t0 - t0_));
    for (size_t t = t0_; t < t0; ++t) {
      prefix_rmse_.Add(state_->data[t], scratch_->scan_estimate[t]);
    }
    t0_ = t0;
  }

  /// RMSE of the state as it is now.
  double Rmse() {
    SimulateTail();
    RmseAccumulator acc = prefix_rmse_;
    for (size_t t = t0_; t < state_->n; ++t) {
      acc.Add(state_->data[t], scratch_->scan_estimate[t]);
    }
    return acc.Value();
  }

  /// Per-keyword MDL cost of the state as it is now.
  double CostBits() {
    SimulateTail();
    return GlobalKeywordCostBits(
        std::span<const double>(state_->data.values()),
        std::span<const double>(scratch_->scan_estimate), state_->params,
        state_->shocks, state_->keyword, state_->num_keywords, state_->n,
        state_->coding);
  }

  /// fs[k] = the RMSE after set(xs[k]), every point a lane of one batch.
  /// Leaves the state as set(xs.back()) left it.
  template <typename SetFn>
  void RmseBatch(std::span<const double> xs, const SetFn& set,
                 std::span<double> fs) {
    if (!BatchInputsFinite(xs)) {
      for (size_t l = 0; l < xs.size(); ++l) {
        set(xs[l]);
        fs[l] = Rmse();
      }
      return;
    }
    const size_t lanes = xs.size();
    const size_t steps = state_->n - t0_;
    FitScratch& sc = *scratch_;
    sc.batch_eps.resize(steps * lanes);
    sc.batch_eta.assign(steps * lanes, 0.0);
    sc.batch_out.resize(steps * lanes);
    sc.batch_lanes.resize(7 * lanes);
    double* beta = sc.batch_lanes.data();
    double* delta = beta + lanes;
    double* gamma = delta + lanes;
    const kernels::SivBatchState start{gamma + lanes, gamma + 2 * lanes,
                                       gamma + 3 * lanes, gamma + 4 * lanes};
    bool any_eta = false;
    for (size_t l = 0; l < lanes; ++l) {
      set(xs[l]);
      beta[l] = state_->params.beta;
      delta[l] = state_->params.delta;
      gamma[l] = state_->params.gamma;
      start.n[l] = sim_state_.n;
      start.s[l] = sim_state_.s;
      start.i[l] = sim_state_.i;
      start.v[l] = sim_state_.v;
      EpsTailInto(t0_, state_->n);
      for (size_t k = 0; k < steps; ++k) {
        sc.batch_eps[k * lanes + l] = sc.eps_tail[k];
      }
      EtaTailInto(t0_, state_->n);
      any_eta = any_eta || !sc.eta_tail.empty();
      for (size_t k = 0; k < sc.eta_tail.size(); ++k) {
        sc.batch_eta[k * lanes + l] = sc.eta_tail[k];
      }
    }
    const kernels::SivBatchSoA batch{nullptr, beta, delta, gamma, nullptr,
                                     sc.batch_eps.data(),
                                     any_eta ? sc.batch_eta.data() : nullptr};
    kernels::ResumeSivBatchInto(batch, start, lanes, steps,
                                sc.batch_out.data());
    for (size_t l = 0; l < lanes; ++l) {
      RmseAccumulator acc = prefix_rmse_;
      for (size_t k = 0; k < steps; ++k) {
        acc.Add(state_->data[t0_ + k], sc.batch_out[k * lanes + l]);
      }
      fs[l] = acc.Value();
    }
  }

 private:
  /// eps / eta over ticks [begin, end) of the state into eps_tail /
  /// eta_tail: the values of the schedules SimulateStateInto uses there.
  void EpsTailInto(size_t begin, size_t end) {
    BuildGlobalEpsilonTailInto(state_->shocks, state_->keyword, begin, end,
                               &scratch_->eps_tail);
  }
  void EtaTailInto(size_t begin, size_t end) {
    BuildEtaTailInto(state_->params.growth_rate, state_->params.growth_start,
                     begin, end, &scratch_->eta_tail);
  }

  /// Simulates [t0, n) of the state as it is now into scan_estimate.
  void SimulateTail() {
    EpsTailInto(t0_, state_->n);
    EtaTailInto(t0_, state_->n);
    kernels::SivState tail_state = sim_state_;
    kernels::ResumeSivScalarInto(
        KernelParams(state_->params), scratch_->eps_tail, scratch_->eta_tail,
        &tail_state, std::span<double>(scratch_->scan_estimate).subspan(t0_));
  }

  /// SIMD min/max pick differently from std::clamp only around NaN, so the
  /// batch runs only on finite rates, start state, points and strengths
  /// (finite strengths give finite eps).
  bool BatchInputsFinite(std::span<const double> xs) const {
    bool finite = std::isfinite(state_->params.beta) &&
                  std::isfinite(state_->params.delta) &&
                  std::isfinite(state_->params.gamma) &&
                  std::isfinite(state_->params.growth_rate) &&
                  std::isfinite(sim_state_.n) && std::isfinite(sim_state_.s) &&
                  std::isfinite(sim_state_.i) && std::isfinite(sim_state_.v);
    for (const double x : xs) finite = finite && std::isfinite(x);
    for (const Shock& shock : state_->shocks) {
      finite = finite && std::isfinite(shock.base_strength);
      for (const double g : shock.global_strengths) {
        finite = finite && std::isfinite(g);
      }
    }
    return finite;
  }

  FitState* state_;
  FitScratch* scratch_;
  size_t t0_ = 0;
  kernels::SivState sim_state_;
  RmseAccumulator prefix_rmse_;
};

bool AllFinite(std::span<const double> xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [](double x) { return std::isfinite(x); });
}

/// LM fits of the continuous base parameters {N, beta, delta, gamma, i0}
/// of one or more states, with shocks and growth held fixed, run as one
/// lock-step group (LevenbergMarquardtLockstep). Each state gets the four
/// multi-start points, or its current parameters, and statuses[k] is the
/// verdict on states[k]: numerical failures of individual starts are
/// recoverable (the next start may succeed) and are skipped; anything
/// else — cancellation, injected internal faults — is the state's status,
/// the first in start order. Restarts and the strict `final_cost <
/// best_cost` choice are read in start order too, so every state ends as
/// a serial run of its starts would leave it. The states are copies of one
/// keyword's state (same data).
///
/// Every residual round simulates the waiting trial points as SIMD lanes
/// of kernels::SimulateSivBatchInto: lane k is solve k, whose schedules
/// are packed once for the group. Lanes give SimulateSivInto's bits for
/// finite inputs, so a point with non-finite parameters or schedules runs
/// SimulateSivInto itself, as does a lone finite point (one scalar run is
/// cheaper than a padded vector).
void FitBaseParamsLockstep(std::span<FitState* const> states,
                           bool multi_start, FitScratch* scratch,
                           std::span<Status> statuses) {
  DSPOT_SPAN("global_fit.base_lm");
  FitScratch& sc = *scratch;
  const FitState& first = *states.front();
  const size_t n = first.n;
  const double peak = first.peak;
  const Series& data = first.data;
  std::vector<size_t>& observed = sc.observed;
  observed.clear();
  for (size_t t = 0; t < n; ++t) {
    if (data.IsObserved(t)) observed.push_back(t);
  }
  // N must exceed the observed peak: I(t) <= N always, so a smaller N
  // would make the spikes unreachable for any shock strength.
  Bounds bounds;
  bounds.lower = {peak * 1.05, 1e-4, 1e-4, 1e-4, 1e-6};
  bounds.upper = {peak * 300.0, 5.0, 1.0, 1.0, peak};

  // Each state's schedules, materialized once for all its solves (only
  // the five scalar dynamics vary between evaluations). They are built
  // into the lane buffers rather than taken from the cache, whose one
  // epsilon slot holds one shock set.
  const size_t num_states = states.size();
  if (sc.lane_eps.size() < num_states) {
    sc.lane_eps.resize(num_states);
    sc.lane_eta.resize(num_states);
  }
  std::vector<LmOptions> options(num_states);
  for (size_t s = 0; s < num_states; ++s) {
    const FitState& state = *states[s];
    BuildGlobalEpsilonInto(state.shocks, state.keyword, n, &sc.lane_eps[s]);
    BuildEtaInto(state.params.growth_rate, state.params.growth_start, n,
                 &sc.lane_eta[s]);
    // Normal equations J^T J and J^T r with J_k = dI(observed[k])/d{N,
    // beta, delta, gamma, i0}, from one tangent-linear pass over the
    // recurrence — replacing the five re-simulations per LM iteration of
    // a numeric Jacobian and the separate Gram / J^T r passes over it.
    options[s].guard = state.guard;
    options[s].normal_equations =
        [epsilon = std::span<const double>(sc.lane_eps[s]),
         eta = std::span<const double>(sc.lane_eta[s]), &observed,
         n](std::span<const double> p, std::span<const double> r,
            Matrix* jtj, std::span<double> jtr) -> Status {
      const kernels::SivParams sp{p[0], p[1], p[2], p[3], p[4]};
      kernels::SivNormalEquationsInto(sp, epsilon, eta, observed, r, n,
                                      jtj->MutableData(), jtr.data());
      return Status::Ok();
    };
  }

  const std::array<std::array<double, 5>, 4> multi_starts = {{
      {peak * 2.0, 0.3, 0.1, 0.05, 1.0},
      {peak * 2.0, 0.6, 0.4, 0.2, 1.0},
      {peak * 5.0, 0.9, 0.7, 0.5, peak * 0.01},
      {peak * 1.5, 0.2, 0.5, 0.1, peak * 0.05},
  }};
  const size_t starts_per_state = multi_start ? multi_starts.size() : 1;
  const size_t lanes = num_states * starts_per_state;
  std::vector<std::array<double, 5>> starts(lanes);
  for (size_t k = 0; k < lanes; ++k) {
    const KeywordGlobalParams& p = states[k / starts_per_state]->params;
    starts[k] = multi_start ? multi_starts[k % starts_per_state]
                            : std::array<double, 5>{p.population, p.beta,
                                                    p.delta, p.gamma, p.i0};
  }
  if (sc.lm.size() < lanes) sc.lm.resize(lanes);
  std::vector<LmProblem> problems(lanes);
  for (size_t k = 0; k < lanes; ++k) {
    problems[k] = {starts[k], observed.size(), &bounds,
                   &options[k / starts_per_state], &sc.lm[k]};
  }

  // Lane k of the batch buffers is solve k: its state's schedules are
  // packed here once, its parameters in every round it waits in. SIMD
  // min/max pick differently from std::clamp only around NaN, so a state
  // with non-finite schedules keeps its solves out of the batch.
  bool any_eta = false;
  std::vector<char> finite_schedules(num_states);
  for (size_t s = 0; s < num_states; ++s) {
    any_eta = any_eta || !sc.lane_eta[s].empty();
    finite_schedules[s] = AllFinite(sc.lane_eps[s]) && AllFinite(sc.lane_eta[s]);
  }
  if (lanes > 1) {
    sc.batch_eps.resize(n * lanes);
    sc.batch_eta.assign(any_eta ? n * lanes : 0, 0.0);
    sc.batch_out.resize(n * lanes);
    sc.batch_lanes.resize(kernels::kSivNumParams * lanes);
    for (size_t k = 0; k < lanes; ++k) {
      const size_t s = k / starts_per_state;
      for (size_t t = 0; t < n; ++t) {
        sc.batch_eps[t * lanes + k] = sc.lane_eps[s][t];
      }
      for (size_t t = 0; t < sc.lane_eta[s].size(); ++t) {
        sc.batch_eta[t * lanes + k] = sc.lane_eta[s][t];
      }
      for (size_t p = 0; p < kernels::kSivNumParams; ++p) {
        sc.batch_lanes[p * lanes + k] = starts[k][p];
      }
    }
  }
  const double* lane = sc.batch_lanes.data();
  const kernels::SivBatchSoA batch{lane,
                                   lane + lanes,
                                   lane + 2 * lanes,
                                   lane + 3 * lanes,
                                   lane + 4 * lanes,
                                   sc.batch_eps.data(),
                                   any_eta ? sc.batch_eta.data() : nullptr};
  const auto batchable = [&](const LmResidualRequest& request) {
    return lanes > 1 && finite_schedules[request.problem / starts_per_state] &&
           AllFinite(request.params);
  };
  const auto residuals = [&](std::span<LmResidualRequest> requests) {
    size_t batched = 0;
    for (const LmResidualRequest& request : requests) {
      if (!batchable(request)) continue;
      for (size_t p = 0; p < kernels::kSivNumParams; ++p) {
        sc.batch_lanes[p * lanes + request.problem] = request.params[p];
      }
      ++batched;
    }
    if (batched > 1) {
      kernels::SimulateSivBatchInto(batch, lanes, n, sc.batch_out.data());
    }
    for (LmResidualRequest& request : requests) {
      std::span<double> r = request.residuals;
      if (batched > 1 && batchable(request)) {
        for (size_t k = 0; k < observed.size(); ++k) {
          const size_t t = observed[k];
          r[k] = sc.batch_out[t * lanes + request.problem] - data[t];
        }
        continue;
      }
      const std::span<const double> p = request.params;
      const size_t s = request.problem / starts_per_state;
      SimulateSivInto({p[0], p[1], p[2], p[3], p[4]}, sc.lane_eps[s],
                      sc.lane_eta[s], sc.estimate);
      for (size_t k = 0; k < observed.size(); ++k) {
        const size_t t = observed[k];
        r[k] = sc.estimate[t] - data[t];
      }
    }
  };
  sc.estimate.resize(n);
  std::vector<StatusOr<LmResult>> fits =
      LevenbergMarquardtLockstep(problems, residuals);

  const auto verdict = [&](size_t s) -> Status {
    FitState* state = states[s];
    double best_cost = std::numeric_limits<double>::infinity();
    KeywordGlobalParams best = state->params;
    for (size_t j = 0; j < starts_per_state; ++j) {
      const StatusOr<LmResult>& fit = fits[s * starts_per_state + j];
      if (!fit.ok()) {
        const StatusCode code = fit.status().code();
        if (code == StatusCode::kNumericalError ||
            code == StatusCode::kInvalidArgument) {
          continue;  // recoverable per-start failure; try the next start
        }
        return fit.status();
      }
      if (state->health) {
        state->health->restarts += fit->health.restarts;
      }
      if (fit->final_cost < best_cost) {
        best_cost = fit->final_cost;
        best.population = fit->params[0];
        best.beta = fit->params[1];
        best.delta = fit->params[2];
        best.gamma = fit->params[3];
        best.i0 = fit->params[4];
        best.growth_rate = state->params.growth_rate;
        best.growth_start = state->params.growth_start;
      }
    }
    if (std::isfinite(best_cost)) {
      state->params = best;
    }
    return Status::Ok();
  };
  for (size_t s = 0; s < num_states; ++s) statuses[s] = verdict(s);
}

/// FitBaseParamsLockstep of one state: multi-start on the first round.
Status FitBaseParams(FitState* state, bool multi_start, FitScratch* scratch) {
  Status status;
  FitBaseParamsLockstep(std::span<FitState* const>(&state, 1), multi_start,
                        scratch, std::span<Status>(&status, 1));
  return status;
}

/// Growth-effect search: grid over the onset t_eta, 1-d search over eta_0.
/// A growth term is adopted when it lowers the MDL cost or buys a
/// meaningful RMSE improvement (same optimistic-forward rationale as shock
/// addition; the term only costs ~40 bits, so any real improvement also
/// wins on cost at the next evaluation). An existing term is dropped when
/// the model without it codes cheaper.
void FitGrowth(FitState* state, const GlobalFitOptions& options,
               FitScratch* scratch) {
  DSPOT_SPAN("global_fit.growth_search");
  const double base_cost = StateCostBits(*state, scratch);

  FitState probe = *state;
  // Consider removing an existing growth term (strict MDL).
  if (state->params.has_growth()) {
    probe.params.growth_start = kNpos;
    probe.params.growth_rate = 0.0;
    if (StateCostBits(probe, scratch) < base_cost) {
      state->params = probe.params;
      return;
    }
    probe.params = state->params;
  }
  double best_rmse = std::numeric_limits<double>::infinity();
  double best_cost = base_cost;
  KeywordGlobalParams best = state->params;
  // Onset t_eta leaves the run before it growth-free, so the scan shares
  // that prefix; onsets ascend, so it only moves forward.
  TailScan scan(&probe, scratch);
  const auto set_rate = [&](double eta0) { probe.params.growth_rate = eta0; };
  const size_t grid = std::max<size_t>(options.growth_grid, 2);
  for (size_t g = 1; g < grid; ++g) {
    const size_t t_eta = state->n * g / grid;
    if (t_eta < 2 || t_eta + 4 >= state->n) continue;
    probe.params.growth_start = t_eta;
    scan.AdvanceTo(t_eta);
    const double rate = GridThenGoldenMinimize(
        [&](double eta0) {
          set_rate(eta0);
          return scan.Rmse();
        },
        0.0, options.max_growth_rate, 20, 1e-4,
        [&](std::span<const double> xs, std::span<double> fs) {
          scan.RmseBatch(xs, set_rate, fs);
        });
    set_rate(rate);
    const double rmse = scan.Rmse();
    if (rmse < best_rmse) {
      best_rmse = rmse;
      best_cost = scan.CostBits();
      best = probe.params;
    }
  }
  const bool mdl_better = best_cost < base_cost * (1.0 - options.min_cost_decrease) ||
                          best_cost < base_cost - 1.0;
  if (mdl_better) {
    state->params = best;
  }
}

/// Hierarchical fit of one shock's strengths. Stage 1 fits the shared
/// eps_0 (one float under MDL). Stage 2 lets individual occurrences
/// deviate where that helps the fit, then reverts deviations that do not
/// pay their own description cost — keeping most occurrences at the
/// default and the model parsimonious.
void FitShockStrengths(FitState* state, size_t shock_index,
                       double max_strength, FitScratch* scratch) {
  Shock& shock = state->shocks[shock_index];
  // Every strength of this shock acts from its start on; occurrence m's
  // from the occurrence's start (windows never reach the next occurrence).
  TailScan scan(state, scratch);
  scan.AdvanceTo(shock.start);
  // Stage 1: shared strength.
  const auto set_shared = [&](double strength) {
    shock.base_strength = strength;
    std::fill(shock.global_strengths.begin(), shock.global_strengths.end(),
              strength);
  };
  const double shared = GuardedMinimize(
      [&](double strength) {
        set_shared(strength);
        return scan.Rmse();
      },
      0.0, max_strength, shock.base_strength, 24, 1e-6,
      [&](std::span<const double> xs, std::span<double> fs) {
        scan.RmseBatch(xs, set_shared, fs);
      });
  set_shared(shared);
  // Stage 2: per-occurrence deviations (pointless for one occurrence).
  if (shock.global_strengths.size() < 2) {
    return;
  }
  for (size_t m = 0; m < shock.global_strengths.size(); ++m) {
    scan.AdvanceTo(OccurrenceStart(shock, m));
    const auto set_occurrence = [&](double strength) {
      shock.global_strengths[m] = strength;
    };
    shock.global_strengths[m] = GuardedMinimize(
        [&](double strength) {
          set_occurrence(strength);
          return scan.Rmse();
        },
        0.0, max_strength, shock.global_strengths[m], 24, 1e-6,
        [&](std::span<const double> xs, std::span<double> fs) {
          scan.RmseBatch(xs, set_occurrence, fs);
        });
  }
  // MDL sweep: a deviation stays only if it codes cheaper than the
  // default.
  double cost = StateCostBits(*state, scratch);
  TailScan sweep(state, scratch);
  for (size_t m = 0; m < shock.global_strengths.size(); ++m) {
    if (shock.global_strengths[m] == shock.base_strength) continue;
    sweep.AdvanceTo(OccurrenceStart(shock, m));
    const double saved = shock.global_strengths[m];
    shock.global_strengths[m] = shock.base_strength;
    const double cost_reverted = sweep.CostBits();
    if (cost_reverted <= cost) {
      cost = cost_reverted;
    } else {
      shock.global_strengths[m] = saved;
    }
  }
}

/// Refines a candidate's (t_s, t_w) against the data. Detected bursts lag
/// the causal shock window — I(t) responds to eps(t) one or two ticks
/// later — so the burst-anchored proposal is scanned over small backward
/// start offsets and narrower widths. Each variant is scored cheaply with
/// a single shared strength; the winner is returned with its occurrence
/// vector resized.
Shock RefineShockPlacement(const FitState& state, const Shock& candidate,
                           double max_strength, FitScratch* scratch) {
  Shock best = candidate;
  double best_rmse = std::numeric_limits<double>::infinity();
  FitState probe = state;
  probe.shocks.push_back(candidate);
  Shock& trial = probe.shocks.back();
  // Every variant starts at or after the earliest one, so all of them
  // share the simulation before it.
  TailScan scan(&probe, scratch);
  scan.AdvanceTo(candidate.start - std::min<size_t>(candidate.start, 3));
  const auto set_strength = [&](double v) {
    std::fill(trial.global_strengths.begin(), trial.global_strengths.end(), v);
  };
  for (size_t offset = 0; offset <= 3; ++offset) {
    if (candidate.start < offset) break;
    for (size_t narrow = 0; narrow < 3 && candidate.width > narrow; ++narrow) {
      trial = candidate;
      trial.start = candidate.start - offset;
      trial.width = candidate.width - narrow;
      trial.global_strengths.assign(trial.NumOccurrences(state.n), 0.0);
      // Shared-strength 1-d fit (cheap placement score).
      const double strength = GridThenGoldenMinimize(
          [&](double v) {
            set_strength(v);
            return scan.Rmse();
          },
          0.0, max_strength, 20, 1e-2,
          [&](std::span<const double> xs, std::span<double> fs) {
            scan.RmseBatch(xs, set_strength, fs);
          });
      trial.base_strength = strength;
      set_strength(strength);
      const double rmse = scan.Rmse();
      if (rmse < best_rmse) {
        best_rmse = rmse;
        best = trial;
      }
    }
  }
  return best;
}

/// One shock candidate judged against the incumbent: the probe's base
/// parameters and shocks after the joint refinement, its MDL cost and
/// RMSE, and the LM restarts it took.
struct CandidateFit {
  KeywordGlobalParams params;
  std::vector<Shock> shocks;
  double cost = 0.0;
  double rmse = 0.0;
  int restarts = 0;
};

/// Adds `candidate` to a copy of `state`, refines its placement, fits its
/// strengths, and refits base and strengths jointly. Reads `state` only
/// and works on its own FitScratch and FitHealth, so the candidates of one
/// TryAddShock can run concurrently.
StatusOr<CandidateFit> FitCandidate(const FitState& state,
                                    const Shock& candidate,
                                    const GlobalFitOptions& options) {
  FitScratch scratch;
  FitHealth health;
  FitState probe = state;
  probe.health = &health;
  probe.shocks.push_back(RefineShockPlacement(
      state, candidate, options.max_shock_strength, &scratch));
  FitShockStrengths(&probe, probe.shocks.size() - 1,
                    options.max_shock_strength, &scratch);
  // Joint refinement before the MDL verdict: the incumbent base was fit
  // with this spike mass unexplained, so judge the candidate only after
  // base and strengths are refit *together*. Shock-free optima often sit
  // in degenerate basins (e.g. a slow-ramp fit with tiny beta/delta where
  // no eps(t) can produce a spike), and neither a warm base refit (stays
  // in the basin) nor a plain multi-start (the basin wins as long as the
  // strengths are zero) escapes — so each start gets a mini-EM: base LM,
  // strength fit, base LM again.
  //
  // The seeds run in phases: their first base LMs in lock-step, then each
  // seed's strengths in seed order, then their second base LMs in
  // lock-step. The verdict is the serial loop's: it stops at its first
  // error — the lowest failing seed's, its first LM's before its second's
  // — so seeds from the lowest first-LM failure on need no more work.
  std::array<FitState, 3> trials = {probe, probe, probe};
  trials[1].params.population = probe.peak * 2.0;
  trials[1].params.beta = 0.5;
  trials[1].params.delta = 0.45;
  trials[1].params.gamma = 0.5;
  trials[1].params.i0 = 1.0;
  trials[2].params = trials[1].params;
  trials[2].params.beta = 0.9;
  trials[2].params.delta = 0.7;
  trials[2].params.gamma = 0.2;
  const std::array<FitState*, 3> seeds = {&trials[0], &trials[1], &trials[2]};
  std::array<Status, 3> first_lm;
  std::array<Status, 3> second_lm;
  FitBaseParamsLockstep(seeds, /*multi_start=*/false, &scratch, first_lm);
  size_t live = 0;
  while (live < seeds.size() && first_lm[live].ok()) ++live;
  for (size_t k = 0; k < live; ++k) {
    FitShockStrengths(seeds[k], seeds[k]->shocks.size() - 1,
                      options.max_shock_strength, &scratch);
  }
  if (live > 0) {
    FitBaseParamsLockstep(std::span<FitState* const>(seeds).first(live),
                          /*multi_start=*/false, &scratch,
                          std::span<Status>(second_lm).first(live));
  }
  for (size_t k = 0; k < live; ++k) {
    DSPOT_RETURN_IF_ERROR(second_lm[k]);
  }
  if (live < seeds.size()) return first_lm[live];
  const FitState* best_joint = &probe;
  double best_joint_rmse = std::numeric_limits<double>::infinity();
  for (const FitState* trial : seeds) {
    const double trial_rmse = StateRmse(*trial, &scratch);
    if (trial_rmse < best_joint_rmse) {
      best_joint_rmse = trial_rmse;
      best_joint = trial;
    }
  }
  CandidateFit fit;
  fit.cost = StateCostBits(*best_joint, &scratch);
  fit.rmse = StateRmse(*best_joint, &scratch);
  fit.params = best_joint->params;
  fit.shocks = best_joint->shocks;
  fit.restarts = health.restarts;
  return fit;
}

/// One pass of greedy shock detection: propose candidates from the current
/// residual, refine their placement, fit their strengths, and keep the
/// best candidate. Acceptance is *optimistic*: a candidate is kept if it
/// lowers the MDL cost OR improves the RMSE by a meaningful margin. With
/// several overlapping spike trains, no single train lowers the Gaussian
/// coding cost on its own (the residual variance stays dominated by the
/// remaining trains), so a strict per-addition MDL gate deadlocks; the
/// strict gate is instead applied by the backward pruning pass after the
/// joint refit. Returns true if a shock was added.
///
/// Every candidate is judged against the same incumbent, so the candidates
/// fan out over the pool at options.num_threads, each into its own slot.
/// The verdict reads the slots in index order — restarts summed, the first
/// failing slot's status returned, strict `cost < best_cost` — so the fit,
/// its errors and its health match a serial loop at any thread count.
StatusOr<bool> TryAddShock(FitState* state, const GlobalFitOptions& options,
                           double* current_cost, FitScratch* scratch) {
  const std::span<const double> estimate = SimulateStateInto(*state, scratch);
  Series residual(state->n);
  for (size_t t = 0; t < state->n; ++t) {
    residual[t] = state->data.IsObserved(t) ? state->data[t] - estimate[t]
                                            : kMissingValue;
  }
  const std::vector<Shock> candidates =
      ProposeShockCandidates(residual, state->keyword, options.detection);
  DSPOT_COUNT("global_fit.shock_candidates", candidates.size());
  if (candidates.empty()) {
    return false;
  }
  const double base_cost = *current_cost;
  const double base_rmse = StateRmse(*state, scratch);
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  popts.cancel = state->guard.cancel;
  std::vector<StatusOr<CandidateFit>> fits = ParallelTryMap<CandidateFit>(
      candidates.size(), popts, [&](size_t i) {
        return FitCandidate(*state, candidates[i], options);
      });
  // The forward pass optimizes explanatory power optimistically; the
  // backward pass restores parsimony.
  double best_cost = std::numeric_limits<double>::infinity();
  size_t best = kNpos;
  for (size_t i = 0; i < fits.size(); ++i) {
    if (!fits[i].ok()) {
      return fits[i].status();
    }
    const CandidateFit& fit = *fits[i];
    if (state->health) {
      state->health->restarts += fit.restarts;
    }
    const bool mdl_better =
        fit.cost < base_cost * (1.0 - options.min_cost_decrease) ||
        fit.cost < base_cost - 1.0;
    const bool rmse_better =
        fit.rmse < base_rmse * (1.0 - options.min_rmse_decrease);
    // Among acceptable candidates, prefer the cheaper description: cost
    // comparisons between candidates are meaningful even when the shared
    // residual tail keeps all of them above the incumbent.
    if ((mdl_better || rmse_better) && fit.cost < best_cost) {
      best_cost = fit.cost;
      best = i;
    }
  }
  if (best == kNpos) {
    return false;
  }
  DSPOT_COUNT("global_fit.shocks_added", 1);
  state->params = fits[best]->params;
  state->shocks = std::move(fits[best]->shocks);
  *current_cost = best_cost;
  return true;
}

/// The alternation loop shared by FitGlobalSequence (cold start) and
/// RefitGlobalSequence (warm start from a previous fit). On deadline
/// expiry the strict-MDL best-so-far snapshot is returned with
/// health.termination == kDeadlineExceeded; cancellation propagates as
/// Status::Cancelled.
StatusOr<GlobalSequenceFit> RunAlternation(FitState state,
                                           const GlobalFitOptions& options,
                                           FitScratch* scratch) {
  DSPOT_SPAN("global_fit.sequence");
  const auto start_time = std::chrono::steady_clock::now();
  FitHealth health;
  state.health = &health;
  state.guard = options.guard;

  // Guard checkpoint shared by the loops below: records the first non-OK
  // status and reports interruption, so nested loops can unwind through
  // plain breaks. Disarmed guards cost one relaxed atomic load.
  Status guard_status = Status::Ok();
  auto interrupted = [&]() -> bool {
    if (!guard_status.ok()) return true;
    if (!(options.guard.active() || FaultInjector::Instance().armed())) {
      return false;
    }
    Status check = options.guard.Check("GlobalFit alternation");
    if (check.ok()) return false;
    guard_status = std::move(check);
    return true;
  };

  double cost = StateCostBits(state, scratch);

  // `best_state` tracks the strict-MDL optimum (what we return); the round
  // loop keeps exploring while either the cost or the RMSE is still
  // descending, so optimistic shock additions get the extra joint-refit
  // rounds they need to pay for themselves.
  FitState best_state = state;
  double best_cost = cost;
  double prev_rmse = StateRmse(state, scratch);
  bool converged = false;

  for (int round = 0; round < options.max_outer_rounds; ++round) {
    if (interrupted()) break;
    DSPOT_SPAN("global_fit.round");
    DSPOT_COUNT("global_fit.rounds", 1);
    const double round_start_cost = cost;
    // Base refit against the current shock set. Multi-start once shocks
    // exist: the no-shock optimum (which absorbs spikes into the base
    // dynamics) is a poor basin for the shocked model.
    DSPOT_RETURN_IF_ERROR(
        FitBaseParams(&state, /*multi_start=*/!state.shocks.empty(), scratch));
    if (options.allow_shocks) {
      // Refit the strengths of already-accepted shocks against the
      // refreshed base, then greedily extend the shock set.
      for (size_t k = 0; k < state.shocks.size(); ++k) {
        FitShockStrengths(&state, k, options.max_shock_strength, scratch);
      }
      cost = StateCostBits(state, scratch);
      while (state.shocks.size() < options.max_shocks_per_keyword &&
             !interrupted()) {
        DSPOT_ASSIGN_OR_RETURN(
            bool added, TryAddShock(&state, options, &cost, scratch));
        if (!added) break;
      }
    }
    if (interrupted()) break;
    if (options.allow_shocks) {
      // Backward pass: drop shocks whose description cost is no longer
      // justified (mirrors the paper's re-initialization of s_i without
      // discarding still-useful events).
      cost = StateCostBits(state, scratch);
      for (size_t k = 0; k < state.shocks.size();) {
        FitState without = state;
        without.shocks.erase(without.shocks.begin() + k);
        const double cost_without = StateCostBits(without, scratch);
        if (cost_without <= cost + options.prune_slack_bits) {
          DSPOT_COUNT("global_fit.shocks_pruned", 1);
          state = std::move(without);
          cost = cost_without;
        } else {
          ++k;
        }
      }
      // Simplification pass: a cyclic shock whose energy sits in a single
      // occurrence is really a one-shot — re-encode it as such when the
      // code length does not object (prevents "period 9, one strong
      // occurrence" artifacts in the event inventory).
      for (size_t k = 0; k < state.shocks.size(); ++k) {
        const Shock& shock = state.shocks[k];
        if (!shock.IsCyclic() || shock.global_strengths.empty()) continue;
        const size_t m_best = ArgMax(shock.global_strengths);
        if (m_best == kNpos) continue;
        FitState probe = state;
        Shock& alt = probe.shocks[k];
        alt.period = Shock::kNonCyclic;
        alt.start = shock.start + m_best * shock.period;
        alt.base_strength = shock.global_strengths[m_best];
        alt.global_strengths = {alt.base_strength};
        FitShockStrengths(&probe, k, options.max_shock_strength, scratch);
        const double cost_alt = StateCostBits(probe, scratch);
        if (cost_alt <= cost + options.prune_slack_bits) {
          state = std::move(probe);
          cost = cost_alt;
        }
      }
    }
    // Growth is searched after the shock set has stabilized: evaluated
    // earlier, optimistically added shocks absorb the level-shift mass and
    // the strict MDL gate rejects the (real) growth term; evaluated here,
    // the spikes are explained, the junk is pruned, and a level shift
    // shows up cleanly in the coding-cost balance.
    if (options.allow_growth && !interrupted()) {
      FitGrowth(&state, options, scratch);
    }
    cost = StateCostBits(state, scratch);
    const double rmse = StateRmse(state, scratch);
    ++health.iterations;
    DSPOT_OBSERVE("global_fit.round.cost_bits_delta", cost - round_start_cost);
    bool progressed = false;
    if (cost < best_cost * (1.0 - options.min_cost_decrease) ||
        cost < best_cost - 1.0) {
      best_cost = cost;
      best_state = state;
      progressed = true;
    }
    if (rmse < prev_rmse * (1.0 - options.min_rmse_decrease)) {
      progressed = true;
    }
    prev_rmse = rmse;
    if (!progressed) {
      converged = true;
      break;
    }
  }

  if (!guard_status.ok() &&
      guard_status.code() == StatusCode::kCancelled) {
    return guard_status;
  }

  if (options.return_final_state) {
    best_state = state;
    best_cost = StateCostBits(state, scratch);
  }
  GlobalSequenceFit fit;
  fit.params = best_state.params;
  fit.shocks = best_state.shocks;
  fit.fit_ticks = best_state.n;
  fit.estimate = SimulateStateSeries(best_state, scratch);
  fit.cost_bits = best_cost;
  fit.rmse = Rmse(best_state.data, fit.estimate);
  health.wall_time_ms = ElapsedMs(start_time);
  health.termination = !guard_status.ok()
                           ? FitTermination::kDeadlineExceeded
                           : (converged ? FitTermination::kConverged
                                        : FitTermination::kMaxIterations);
  fit.health = health;
  return fit;
}

}  // namespace

StatusOr<GlobalSequenceFit> FitGlobalSequence(const Series& data,
                                              size_t keyword,
                                              size_t num_keywords,
                                              const GlobalFitOptions& options) {
  if (data.observed_count() < 16) {
    return Status::InvalidArgument(
        "FitGlobalSequence: need at least 16 observations");
  }
  FitState state;
  state.data = data;
  state.keyword = keyword;
  state.num_keywords = std::max<size_t>(num_keywords, 1);
  state.n = data.size();
  state.peak = std::max(data.MaxValue(), 1.0);
  state.coding = options.coding_model;
  state.params.population = state.peak * 2.0;
  state.params.i0 = 1.0;
  state.guard = options.guard;

  FitScratch scratch;
  DSPOT_RETURN_IF_ERROR(FitBaseParams(&state, /*multi_start=*/true, &scratch));
  return RunAlternation(std::move(state), options, &scratch);
}

StatusOr<GlobalSequenceFit> RefitGlobalSequence(
    const Series& data, size_t keyword, size_t num_keywords,
    const KeywordModel& previous, const GlobalFitOptions& options) {
  if (data.observed_count() < 16) {
    return Status::InvalidArgument(
        "RefitGlobalSequence: need at least 16 observations");
  }
  if (data.size() < previous.fit_ticks) {
    return Status::InvalidArgument(
        "RefitGlobalSequence: data shorter than the previous fit");
  }
  FitState state;
  state.data = data;
  state.keyword = keyword;
  state.num_keywords = std::max<size_t>(num_keywords, 1);
  state.n = data.size();
  state.peak = std::max(data.MaxValue(), 1.0);
  state.coding = options.coding_model;
  state.guard = options.guard;
  state.params = previous.params;
  state.shocks = previous.shocks;
  // Extend cyclic shocks over the newly observed range: fresh occurrences
  // start at the shared strength and keyword tags follow this refit.
  for (Shock& shock : state.shocks) {
    shock.keyword = keyword;
    const size_t occ = shock.NumOccurrences(state.n);
    shock.global_strengths.resize(occ, shock.base_strength);
  }
  GlobalFitOptions warm_options = options;
  warm_options.max_outer_rounds = std::min(options.max_outer_rounds, 2);
  FitScratch scratch;
  return RunAlternation(std::move(state), warm_options, &scratch);
}

StatusOr<ModelParamSet> GlobalFit(const ActivityTensor& tensor,
                                  const GlobalFitOptions& options,
                                  std::vector<Status>* keyword_status,
                                  FitHealth* health) {
  if (tensor.empty()) {
    return Status::InvalidArgument("GlobalFit: empty tensor");
  }
  ModelParamSet params;
  params.num_keywords = tensor.num_keywords();
  params.num_locations = tensor.num_locations();
  params.num_ticks = tensor.num_ticks();
  // Keywords are independent (Algorithm 2 runs per keyword), so fit them
  // concurrently. ParallelTryMap lands each fit in its keyword's slot —
  // result and error paths both match the serial loop bit for bit — and
  // keeps every per-keyword outcome, so kSkipAndReport can use the
  // successful fits while surfacing the failed keywords.
  if (options.warm_start != nullptr &&
      tensor.num_ticks() < options.warm_start->num_ticks) {
    return Status::InvalidArgument(
        "GlobalFit: tensor spans " + std::to_string(tensor.num_ticks()) +
        " ticks but the warm-start model was fit on " +
        std::to_string(options.warm_start->num_ticks) +
        " — warm starts only extend, never shrink");
  }
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  popts.cancel = options.guard.cancel;
  std::vector<StatusOr<GlobalSequenceFit>> fits =
      ParallelTryMap<GlobalSequenceFit>(
          params.num_keywords, popts, [&](size_t i) {
            // Keywords covered by the warm-start model skip the cold
            // multi-start search and refit from the previous parameters;
            // keywords beyond it (e.g. added since the snapshot) fall
            // back to a cold fit.
            const ModelParamSet* warm = options.warm_start;
            if (warm != nullptr && i < warm->global.size()) {
              DSPOT_COUNT("global_fit.warm_starts", 1);
              return RefitGlobalSequence(tensor.GlobalSequence(i), i,
                                         params.num_keywords,
                                         warm->KeywordModelFor(i), options);
            }
            DSPOT_COUNT("global_fit.cold_starts", 1);
            return FitGlobalSequence(tensor.GlobalSequence(i), i,
                                     params.num_keywords, options);
          });
  if (keyword_status) {
    keyword_status->clear();
    keyword_status->reserve(params.num_keywords);
    for (const StatusOr<GlobalSequenceFit>& fit : fits) {
      keyword_status->push_back(fit.status());
    }
  }
  // Cancellation is caller-initiated and fails the whole fit regardless
  // of the keyword-error policy.
  if (options.guard.cancel.cancelled()) {
    return Status::Cancelled("GlobalFit: cancelled");
  }
  // Deterministic assembly: keyword order, exactly like the serial loop.
  // Under kFail the first (lowest-index) error propagates; under
  // kSkipAndReport failed keywords keep default parameters and no shocks.
  FitHealth merged;
  params.global.reserve(params.num_keywords);
  for (StatusOr<GlobalSequenceFit>& fit : fits) {
    if (!fit.ok()) {
      if (options.on_keyword_error == KeywordErrorPolicy::kFail) {
        return fit.status();
      }
      params.global.push_back(KeywordGlobalParams());
      continue;
    }
    merged.Merge(fit->health);
    params.global.push_back(fit->params);
    for (Shock& shock : fit->shocks) {
      params.shocks.push_back(std::move(shock));
    }
  }
  if (health) {
    *health = merged;
  }
  return params;
}

}  // namespace dspot
