#include "optimize/levenberg_marquardt.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>

#include "common/random.h"
#include "guard/fault_injector.h"
#include "linalg/vector_ops.h"
#include "obs/metrics.h"

namespace dspot {

namespace {

/// Computes the forward-difference Jacobian of `fn` at `p` into `ws->jac`.
/// `r0` is the residual vector already evaluated at `p`. Steps are clamped
/// so probe points stay inside `bounds` (by stepping backwards when at the
/// upper bound). Reuses the workspace probe buffers, so it is
/// allocation-free once warm.
template <typename EvalFn>
Status NumericJacobianInto(const EvalFn& fn, const std::vector<double>& p,
                           const std::vector<double>& r0, const Bounds& bounds,
                           const LmOptions& options, LmWorkspace* ws) {
  const size_t np = p.size();
  const size_t m = r0.size();
  Matrix& jac = ws->jac;
  jac.Resize(m, np);
  std::vector<double>& probe = ws->probe;
  probe = p;
  std::vector<double>& r1 = ws->probe_r;
  r1.resize(m);
  for (size_t j = 0; j < np; ++j) {
    double h = options.jacobian_step * std::max(1.0, std::fabs(p[j]));
    // Step backwards if a forward step would leave the box.
    if (!bounds.empty() && p[j] + h > bounds.upper[j]) {
      h = -h;
    }
    probe[j] = p[j] + h;
    Status s = fn(probe, r1);
    probe[j] = p[j];
    if (!s.ok()) {
      return s;
    }
    const double inv_h = 1.0 / h;
    for (size_t i = 0; i < m; ++i) {
      jac(i, j) = (r1[i] - r0[i]) * inv_h;
    }
  }
  return Status::Ok();
}

double HalfSumSquares(std::span<const double> r) {
  return 0.5 * SumSquares(r);
}

/// A cost this size means the model left its meaningful regime: healthy
/// Δ-SPOT residuals are bounded by the box constraints at ~1e23, so 1e100
/// only triggers on genuine blow-ups — treating it as divergence (instead
/// of climbing the lambda ladder) cannot change a healthy fit.
constexpr double kExplodingCost = 1e100;

bool IsDivergentCost(double cost) {
  return !std::isfinite(cost) || cost > kExplodingCost;
}

/// Deterministic restart start point: the rewind anchor perturbed by a
/// seed-derived relative jitter, clamped back into the box. Attempt k
/// draws from Random(restart_seed).Child(k), so the sequence of starts is
/// a pure function of the options.
void JitterFromAnchor(std::span<const double> anchor, const Bounds& bounds,
                      const LmOptions& options, int attempt,
                      std::span<double> p) {
  Random rng = Random(options.restart_seed).Child(
      static_cast<uint64_t>(attempt));
  for (size_t j = 0; j < anchor.size(); ++j) {
    const double scale = std::max(1.0, std::fabs(anchor[j]));
    p[j] = anchor[j] + options.restart_jitter * scale * rng.Uniform(-1.0, 1.0);
  }
  bounds.Clamp(p);
}

/// The Levenberg-Marquardt loop of one problem as a resumable solve over
/// its workspace. Begin stages the first request; OnResiduals and
/// ServeNormalEquations take what the solve waited for and run the loop on
/// to its next request or its end (LmSolveState::wait). The loop's operations,
/// guard checks, fault draws and counters come in the order of a straight
/// loop: an attempt evaluates its start point (restarting from a jittered
/// anchor while the cost is divergent), then each outer iteration checks
/// the guard, takes the normal equations and climbs the damping ladder
/// until a trial point lowers the cost.
class ResumableSolve {
 public:
  explicit ResumableSolve(const LmProblem& problem)
      : problem_(problem),
        options_(*problem.options),
        bounds_(*problem.bounds),
        ws_(*problem.workspace),
        st_(problem.workspace->state) {}

  void Begin() {
    st_ = LmSolveState();
    const std::span<const double> initial = problem_.initial;
    if (initial.empty()) {
      return Fail(
          Status::InvalidArgument("LevenbergMarquardt: empty parameters"));
    }
    if (!bounds_.empty() && (bounds_.lower.size() != initial.size() ||
                             bounds_.upper.size() != initial.size())) {
      return Fail(Status::InvalidArgument(
          "LevenbergMarquardt: bounds size does not match parameters"));
    }
    if (problem_.num_residuals == 0) {
      return Fail(
          Status::InvalidArgument("LevenbergMarquardt: empty residuals"));
    }
    if (MaybeInjectFault(FaultSite::kAllocation)) {
      return Fail(Status::Internal(
          "LevenbergMarquardt: injected workspace allocation failure"));
    }
    DSPOT_COUNT("lm.solves", 1);
    st_.start_time = std::chrono::steady_clock::now();
    ws_.p.assign(initial.begin(), initial.end());
    bounds_.Clamp(std::span<double>(ws_.p));
    ws_.r.resize(problem_.num_residuals);
    AwaitStartPoint();
  }

  /// The residual request of a solve that waits for residuals.
  LmResidualRequest Request(size_t index) const {
    if (st_.trial) return {index, ws_.candidate, ws_.r_new, Status::Ok()};
    return {index, ws_.p, ws_.r, Status::Ok()};
  }

  void OnResiduals(Status status) {
    if (!status.ok()) return Fail(std::move(status));
    if (st_.trial) return OnTrialPoint();
    OnStartPoint();
  }

  /// Serves the normal equations the solve waits for: the hook, or the
  /// forward-difference Jacobian through one-request `residuals` calls
  /// (its J^T J / J^T r products outside the `lm.jacobian` span).
  void ServeNormalEquations(const LmBatchResidualFn& residuals,
                            size_t index) {
    const size_t np = ws_.p.size();
    ws_.jtr.resize(np);
    Status status;
    if (options_.normal_equations) {
      DSPOT_SPAN("lm.jacobian");
      ws_.jtj.Resize(np, np);
      status = options_.normal_equations(ws_.p, ws_.r, &ws_.jtj, ws_.jtr);
    } else {
      {
        DSPOT_SPAN("lm.jacobian");
        const auto probe = [&](std::span<const double> params,
                               std::span<double> out) {
          LmResidualRequest request{index, params, out, Status::Ok()};
          residuals(std::span<LmResidualRequest>(&request, 1));
          return request.status;
        };
        status =
            NumericJacobianInto(probe, ws_.p, ws_.r, bounds_, options_, &ws_);
      }
      if (status.ok()) {
        ws_.jac.GramInto(&ws_.jtj);
        ws_.jac.TransposedTimesInto(ws_.r, ws_.jtr);
      }
    }
    if (!status.ok()) return Fail(std::move(status));
    if (NormInf(std::span<const double>(ws_.jtr)) <
        options_.gradient_tolerance) {
      st_.result.converged = true;
      return EndAttempt();
    }
    ClimbLadder();
  }

  StatusOr<LmResult> TakeResult() {
    if (!st_.status.ok()) return st_.status;
    return std::move(st_.result);
  }

 private:
  int MaxRestarts() const { return std::max(options_.max_restarts, 0); }

  void AwaitStartPoint() {
    st_.wait = LmWait::kResiduals;
    st_.trial = false;
  }

  void Fail(Status status) {
    st_.status = std::move(status);
    st_.wait = LmWait::kDone;
  }

  void Finish(FitTermination termination) {
    LmResult& result = st_.result;
    DSPOT_COUNT("lm.iterations", static_cast<uint64_t>(result.iterations));
    if (st_.have_best) {
      result.params = ws_.best_p;
      result.final_cost = st_.best_cost;
    } else {
      result.params = ws_.p;
      result.final_cost = std::numeric_limits<double>::quiet_NaN();
    }
    result.health.iterations = result.iterations;
    result.health.termination = termination;
    result.health.wall_time_ms = ElapsedMs(st_.start_time);
    st_.wait = LmWait::kDone;
  }

  void Restart() {
    ++st_.result.health.restarts;
    DSPOT_COUNT("lm.restarts", 1);
  }

  void OnStartPoint() {
    double cost = HalfSumSquares(ws_.r);
    if (MaybeInjectFault(FaultSite::kNanAtResidual)) {
      cost = std::numeric_limits<double>::quiet_NaN();
    }
    if (IsDivergentCost(cost)) {
      DSPOT_COUNT("lm.divergence_events", 1);
      // Hostile start: rewind to the best-so-far iterate (or the clamped
      // initial when none exists yet) and retry from a jittered copy.
      if (st_.attempt >= MaxRestarts()) {
        if (st_.have_best) return Finish(FitTermination::kStalled);
        return Fail(Status::NumericalError(
            "LevenbergMarquardt: non-finite cost at the initial point"));
      }
      Restart();
      if (st_.have_best) {
        JitterFromAnchor(ws_.best_p, bounds_, options_, st_.attempt, ws_.p);
      } else {
        std::vector<double>& anchor = ws_.candidate;
        anchor.assign(problem_.initial.begin(), problem_.initial.end());
        bounds_.Clamp(std::span<double>(anchor));
        JitterFromAnchor(anchor, bounds_, options_, st_.attempt, ws_.p);
      }
      ++st_.attempt;
      return AwaitStartPoint();
    }
    if (!st_.have_best) st_.result.initial_cost = cost;
    // Best-so-far across restarts: within one attempt p improves
    // monotonically, but a restart jitters away from it, so the returned
    // iterate is tracked explicitly.
    if (!st_.have_best || cost < st_.best_cost) {
      ws_.best_p = ws_.p;
      st_.best_cost = cost;
      st_.have_best = true;
    }
    st_.cost = cost;
    st_.lambda = options_.initial_lambda;
    st_.diverged = false;
    st_.stalled = false;
    NextIteration();
  }

  /// Top of an outer iteration: the budget, then the guard, then a wait
  /// for the normal equations (J^T J + lambda I) step = -J^T r.
  void NextIteration() {
    if (st_.outer_iters >= options_.max_iterations) return EndAttempt();
    if (options_.guard.active() || FaultInjector::Instance().armed()) {
      Status guard_status = options_.guard.Check("LevenbergMarquardt");
      if (!guard_status.ok()) {
        if (guard_status.code() == StatusCode::kCancelled) {
          return Fail(std::move(guard_status));
        }
        st_.stopped_by_guard = true;
        return EndAttempt();
      }
    }
    ++st_.outer_iters;
    st_.wait = LmWait::kNormalEquations;
  }

  /// Solves the damped system at the current lambda, raising lambda past
  /// failed solves, and waits for the residuals at the clamped trial
  /// point; past max_lambda the attempt is stuck.
  void ClimbLadder() {
    const size_t np = ws_.p.size();
    while (st_.lambda <= options_.max_lambda) {
      // Copy-assignment reuses the destination's storage once warm.
      ws_.damped = ws_.jtj;
      ws_.damped.AddToDiagonal(st_.lambda);
      ws_.neg_jtr.resize(np);
      for (size_t i = 0; i < np; ++i) {
        ws_.neg_jtr[i] = ws_.jtr[i] * -1.0;
      }
      ws_.step.resize(np);
      Status solve =
          RegularizedLdltSolveInto(ws_.damped, ws_.neg_jtr, ws_.step, &ws_.ldlt);
      if (MaybeInjectFault(FaultSite::kSolverFailure)) {
        solve = Status::NumericalError(
            "LevenbergMarquardt: injected normal-equation solve failure");
      }
      if (!solve.ok()) {
        st_.lambda *= options_.lambda_up;
        continue;
      }
      std::vector<double>& candidate = ws_.candidate;
      candidate.resize(np);
      for (size_t i = 0; i < np; ++i) {
        candidate[i] = ws_.p[i] + ws_.step[i];
      }
      bounds_.Clamp(std::span<double>(candidate));
      ws_.actual_step.resize(np);
      for (size_t i = 0; i < np; ++i) {
        ws_.actual_step[i] = candidate[i] - ws_.p[i];
      }
      ws_.r_new.resize(problem_.num_residuals);
      st_.wait = LmWait::kResiduals;
      st_.trial = true;
      return;
    }
    // Lambda blew past its cap: stuck.
    st_.stalled = true;
    st_.result.converged = true;
    EndAttempt();
  }

  void OnTrialPoint() {
    double cost_new = HalfSumSquares(ws_.r_new);
    if (MaybeInjectFault(FaultSite::kNanAtResidual)) {
      cost_new = std::numeric_limits<double>::quiet_NaN();
    }
    if (IsDivergentCost(cost_new)) {
      DSPOT_COUNT("lm.divergence_events", 1);
      // A NaN/exploding trial can never satisfy the acceptance test:
      // bail out of the lambda ladder immediately instead of burning it
      // to max_lambda, and let divergence recovery take over.
      st_.diverged = true;
      return EndAttempt();
    }
    if (cost_new < st_.cost) {
      const double rel_decrease =
          (st_.cost - cost_new) / std::max(st_.cost, 1e-30);
      const double step_norm =
          NormInf(std::span<const double>(ws_.actual_step));
      std::swap(ws_.p, ws_.candidate);
      std::swap(ws_.r, ws_.r_new);
      st_.cost = cost_new;
      if (st_.cost < st_.best_cost) {
        ws_.best_p = ws_.p;
        st_.best_cost = st_.cost;
      }
      st_.lambda = std::max(st_.lambda * options_.lambda_down, 1e-12);
      ++st_.result.iterations;
      if (rel_decrease < options_.cost_tolerance ||
          step_norm < options_.step_tolerance) {
        st_.result.converged = true;
        return EndAttempt();
      }
      return NextIteration();
    }
    st_.lambda *= options_.lambda_up;
    ClimbLadder();
  }

  /// After an attempt's iterations: a divergent attempt restarts from a
  /// jittered best-so-far while restarts and iterations remain; otherwise
  /// the solve finishes with why it stopped.
  void EndAttempt() {
    if (st_.stopped_by_guard) {
      return Finish(FitTermination::kDeadlineExceeded);
    }
    if (st_.diverged && st_.attempt < MaxRestarts() &&
        st_.outer_iters < options_.max_iterations) {
      Restart();
      JitterFromAnchor(ws_.best_p, bounds_, options_, st_.attempt, ws_.p);
      ++st_.attempt;
      return AwaitStartPoint();
    }
    if (st_.diverged || st_.stalled) return Finish(FitTermination::kStalled);
    if (st_.result.converged) return Finish(FitTermination::kConverged);
    Finish(FitTermination::kMaxIterations);
  }

  const LmProblem& problem_;
  const LmOptions& options_;
  const Bounds& bounds_;
  LmWorkspace& ws_;
  LmSolveState& st_;
};

}  // namespace

std::vector<StatusOr<LmResult>> LevenbergMarquardtLockstep(
    std::span<const LmProblem> problems,
    const LmBatchResidualFn& residuals) {
  DSPOT_SPAN("lm.solve");
  for (const LmProblem& problem : problems) {
    if (problem.workspace != nullptr) ResumableSolve(problem).Begin();
  }
  const auto waits = [&](size_t k, LmWait wait) {
    return problems[k].workspace != nullptr &&
           problems[k].workspace->state.wait == wait;
  };
  std::vector<LmResidualRequest> requests;
  requests.reserve(problems.size());
  for (;;) {
    requests.clear();
    for (size_t k = 0; k < problems.size(); ++k) {
      if (waits(k, LmWait::kResiduals)) {
        requests.push_back(ResumableSolve(problems[k]).Request(k));
      }
    }
    if (requests.empty()) break;
    residuals(requests);
    for (LmResidualRequest& request : requests) {
      ResumableSolve(problems[request.problem])
          .OnResiduals(std::move(request.status));
    }
    for (size_t k = 0; k < problems.size(); ++k) {
      if (waits(k, LmWait::kNormalEquations)) {
        ResumableSolve(problems[k]).ServeNormalEquations(residuals, k);
      }
    }
  }
  std::vector<StatusOr<LmResult>> results;
  results.reserve(problems.size());
  for (const LmProblem& problem : problems) {
    if (problem.workspace == nullptr) {
      results.push_back(
          Status::InvalidArgument("LevenbergMarquardt: null workspace"));
    } else {
      results.push_back(ResumableSolve(problem).TakeResult());
    }
  }
  return results;
}

StatusOr<LmResult> LevenbergMarquardt(const ResidualIntoFn& residual_fn,
                                      size_t num_residuals,
                                      const std::vector<double>& initial,
                                      const Bounds& bounds,
                                      const LmOptions& options,
                                      LmWorkspace* workspace) {
  const LmProblem problem{initial, num_residuals, &bounds, &options,
                          workspace};
  std::vector<StatusOr<LmResult>> results = LevenbergMarquardtLockstep(
      std::span<const LmProblem>(&problem, 1),
      [&residual_fn](std::span<LmResidualRequest> requests) {
        for (LmResidualRequest& request : requests) {
          request.status = residual_fn(request.params, request.residuals);
        }
      });
  return std::move(results.front());
}

StatusOr<LmResult> LevenbergMarquardt(const ResidualFn& residual_fn,
                                      const std::vector<double>& initial,
                                      const Bounds& bounds,
                                      const LmOptions& options) {
  if (initial.empty()) {
    return Status::InvalidArgument("LevenbergMarquardt: empty parameters");
  }
  if (!bounds.empty() && (bounds.lower.size() != initial.size() ||
                          bounds.upper.size() != initial.size())) {
    return Status::InvalidArgument(
        "LevenbergMarquardt: bounds size does not match parameters");
  }
  // Probe once at the clamped initial point to learn the residual count m
  // (residual functions are deterministic per contract, so the workspace
  // core's own initial evaluation reproduces this result bit-for-bit).
  std::vector<double> p0 = initial;
  bounds.Clamp(&p0);
  std::vector<double> r0;
  DSPOT_RETURN_IF_ERROR(residual_fn(p0, &r0));
  if (r0.empty()) {
    return Status::InvalidArgument("LevenbergMarquardt: empty residuals");
  }
  const size_t m = r0.size();
  ResidualIntoFn into = [&residual_fn](std::span<const double> params,
                                       std::span<double> out) -> Status {
    std::vector<double> p(params.begin(), params.end());
    std::vector<double> r;
    r.reserve(out.size());
    DSPOT_RETURN_IF_ERROR(residual_fn(p, &r));
    if (r.size() != out.size()) {
      return Status::Internal("residual size changed between LM evaluations");
    }
    std::copy(r.begin(), r.end(), out.begin());
    return Status::Ok();
  };
  LmWorkspace ws;
  return LevenbergMarquardt(into, m, initial, bounds, options, &ws);
}

}  // namespace dspot
