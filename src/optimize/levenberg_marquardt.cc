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
#include "parallel/parallel_for.h"

namespace dspot {

namespace {

/// Computes the forward-difference Jacobian of `fn` at `p` into `ws->jac`.
/// `r0` is the residual vector already evaluated at `p`. Steps are clamped
/// so probe points stay inside `bounds` (by stepping backwards when at the
/// upper bound). The serial path reuses the workspace probe buffers and is
/// allocation-free once warm. Columns are evaluated in parallel once the
/// parameter count reaches `options.parallel_jacobian_min_params` (and
/// `options.num_threads != 1`); each task owns one probe vector and one
/// scratch residual buffer reused across its whole block of columns, so
/// concurrent probes do not churn allocations. Column j writes only
/// column j of the Jacobian, so the result is bit-identical at any
/// thread count.
Status NumericJacobianInto(const ResidualIntoFn& fn,
                           const std::vector<double>& p,
                           const std::vector<double>& r0, const Bounds& bounds,
                           const LmOptions& options, LmWorkspace* ws) {
  DSPOT_SPAN("lm.jacobian");
  const size_t np = p.size();
  const size_t m = r0.size();
  Matrix& jac = ws->jac;
  jac.Resize(m, np);
  const size_t threads = EffectiveNumThreads(options.num_threads);
  if (threads <= 1 || np < options.parallel_jacobian_min_params) {
    // Serial hot path: no per-call status array, the first failing column
    // returns directly (same column order as the parallel tie-break).
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
  std::vector<Status> statuses(np, Status::Ok());
  // One invocation per contiguous column block; scratch lives across the
  // block. On error the rest of the block is skipped — the first failing
  // column (lowest index, see below) decides the returned status, exactly
  // like the serial early return does.
  auto eval_columns = [&](size_t begin, size_t end) {
    std::vector<double> probe = p;
    std::vector<double> r1(m);
    for (size_t j = begin; j < end; ++j) {
      double h = options.jacobian_step * std::max(1.0, std::fabs(p[j]));
      if (!bounds.empty() && p[j] + h > bounds.upper[j]) {
        h = -h;
      }
      probe[j] = p[j] + h;
      Status s = fn(probe, r1);
      probe[j] = p[j];
      if (!s.ok()) {
        statuses[j] = std::move(s);
        return;
      }
      const double inv_h = 1.0 / h;
      for (size_t i = 0; i < m; ++i) {
        jac(i, j) = (r1[i] - r0[i]) * inv_h;
      }
    }
  };
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  // One block per runner: scratch allocations stay O(threads).
  popts.grain = (np + threads - 1) / threads;
  ParallelForBlocks(np, popts, eval_columns);
  for (size_t j = 0; j < np; ++j) {
    if (!statuses[j].ok()) {
      return statuses[j];
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

}  // namespace

StatusOr<LmResult> LevenbergMarquardt(const ResidualIntoFn& residual_fn,
                                      size_t num_residuals,
                                      const std::vector<double>& initial,
                                      const Bounds& bounds,
                                      const LmOptions& options,
                                      LmWorkspace* workspace) {
  if (workspace == nullptr) {
    return Status::InvalidArgument("LevenbergMarquardt: null workspace");
  }
  if (initial.empty()) {
    return Status::InvalidArgument("LevenbergMarquardt: empty parameters");
  }
  if (!bounds.empty() && (bounds.lower.size() != initial.size() ||
                          bounds.upper.size() != initial.size())) {
    return Status::InvalidArgument(
        "LevenbergMarquardt: bounds size does not match parameters");
  }
  if (num_residuals == 0) {
    return Status::InvalidArgument("LevenbergMarquardt: empty residuals");
  }
  if (MaybeInjectFault(FaultSite::kAllocation)) {
    return Status::Internal(
        "LevenbergMarquardt: injected workspace allocation failure");
  }

  DSPOT_SPAN("lm.solve");
  DSPOT_COUNT("lm.solves", 1);
  const auto start_time = std::chrono::steady_clock::now();
  LmWorkspace& ws = *workspace;
  const size_t np = initial.size();
  const size_t m = num_residuals;

  std::vector<double>& p = ws.p;
  p = initial;
  bounds.Clamp(std::span<double>(p));

  std::vector<double>& r = ws.r;
  r.resize(m);

  LmResult result;
  // Best-so-far across restarts: within one attempt p improves
  // monotonically, but a restart jitters away from it, so the returned
  // iterate is tracked explicitly.
  std::vector<double>& best_p = ws.best_p;
  double best_cost = std::numeric_limits<double>::infinity();
  bool have_best = false;
  bool have_initial_cost = false;
  const int max_restarts = std::max(options.max_restarts, 0);
  // Outer iterations (one Jacobian each) are budgeted across all
  // attempts, so divergence recovery never multiplies the worst case.
  int outer_iters = 0;
  int attempt = 0;
  bool stopped_by_guard = false;

  auto finish = [&](FitTermination termination) -> LmResult {
    DSPOT_COUNT("lm.iterations", static_cast<uint64_t>(result.iterations));
    if (have_best) {
      result.params = best_p;
      result.final_cost = best_cost;
    } else {
      result.params = p;
      result.final_cost = std::numeric_limits<double>::quiet_NaN();
    }
    result.health.iterations = result.iterations;
    result.health.termination = termination;
    result.health.wall_time_ms = ElapsedMs(start_time);
    return result;
  };

  for (;;) {
    DSPOT_RETURN_IF_ERROR(residual_fn(p, r));
    double cost = HalfSumSquares(r);
    if (MaybeInjectFault(FaultSite::kNanAtResidual)) {
      cost = std::numeric_limits<double>::quiet_NaN();
    }
    if (IsDivergentCost(cost)) {
      DSPOT_COUNT("lm.divergence_events", 1);
      // Hostile start: rewind to the best-so-far iterate (or the clamped
      // initial when none exists yet) and retry from a jittered copy.
      if (attempt >= max_restarts) {
        if (have_best) {
          return finish(FitTermination::kStalled);
        }
        return Status::NumericalError(
            "LevenbergMarquardt: non-finite cost at the initial point");
      }
      ++result.health.restarts;
      DSPOT_COUNT("lm.restarts", 1);
      if (have_best) {
        JitterFromAnchor(best_p, bounds, options, attempt, p);
      } else {
        std::vector<double>& anchor = ws.candidate;
        anchor = initial;
        bounds.Clamp(std::span<double>(anchor));
        JitterFromAnchor(anchor, bounds, options, attempt, p);
      }
      ++attempt;
      continue;
    }
    if (!have_initial_cost) {
      result.initial_cost = cost;
      have_initial_cost = true;
    }
    if (!have_best || cost < best_cost) {
      best_p = p;
      best_cost = cost;
      have_best = true;
    }

    double lambda = options.initial_lambda;
    bool diverged = false;
    bool stalled = false;
    while (outer_iters < options.max_iterations) {
      if (options.guard.active() || FaultInjector::Instance().armed()) {
        Status guard_status = options.guard.Check("LevenbergMarquardt");
        if (!guard_status.ok()) {
          if (guard_status.code() == StatusCode::kCancelled) {
            return guard_status;
          }
          stopped_by_guard = true;
          break;
        }
      }
      ++outer_iters;
      // Normal equations: (J^T J + lambda I) step = -J^T r.
      ws.jtr.resize(np);
      if (options.normal_equations) {
        DSPOT_SPAN("lm.jacobian");
        ws.jtj.Resize(np, np);
        DSPOT_RETURN_IF_ERROR(options.normal_equations(p, r, &ws.jtj, ws.jtr));
      } else {
        DSPOT_RETURN_IF_ERROR(
            NumericJacobianInto(residual_fn, p, r, bounds, options, &ws));
        ws.jac.GramInto(&ws.jtj);
        ws.jac.TransposedTimesInto(r, ws.jtr);
      }
      if (NormInf(std::span<const double>(ws.jtr)) <
          options.gradient_tolerance) {
        result.converged = true;
        break;
      }

      bool accepted = false;
      while (lambda <= options.max_lambda) {
        // Copy-assignment reuses the destination's storage once warm.
        ws.damped = ws.jtj;
        ws.damped.AddToDiagonal(lambda);
        ws.neg_jtr.resize(np);
        for (size_t i = 0; i < np; ++i) {
          ws.neg_jtr[i] = ws.jtr[i] * -1.0;
        }
        ws.step.resize(np);
        Status solve =
            RegularizedLdltSolveInto(ws.damped, ws.neg_jtr, ws.step, &ws.ldlt);
        if (MaybeInjectFault(FaultSite::kSolverFailure)) {
          solve = Status::NumericalError(
              "LevenbergMarquardt: injected normal-equation solve failure");
        }
        if (!solve.ok()) {
          lambda *= options.lambda_up;
          continue;
        }
        std::vector<double>& candidate = ws.candidate;
        candidate.resize(np);
        for (size_t i = 0; i < np; ++i) {
          candidate[i] = p[i] + ws.step[i];
        }
        bounds.Clamp(std::span<double>(candidate));
        std::vector<double>& actual_step = ws.actual_step;
        actual_step.resize(np);
        for (size_t i = 0; i < np; ++i) {
          actual_step[i] = candidate[i] - p[i];
        }

        std::vector<double>& r_new = ws.r_new;
        r_new.resize(m);
        Status s = residual_fn(candidate, r_new);
        if (!s.ok()) {
          return s;
        }
        double cost_new = HalfSumSquares(r_new);
        if (MaybeInjectFault(FaultSite::kNanAtResidual)) {
          cost_new = std::numeric_limits<double>::quiet_NaN();
        }
        if (IsDivergentCost(cost_new)) {
          DSPOT_COUNT("lm.divergence_events", 1);
          // A NaN/exploding trial can never satisfy the acceptance test:
          // bail out of the lambda ladder immediately instead of burning
          // it to max_lambda, and let divergence recovery take over.
          diverged = true;
          break;
        }
        if (cost_new < cost) {
          const double rel_decrease =
              (cost - cost_new) / std::max(cost, 1e-30);
          const double step_norm =
              NormInf(std::span<const double>(actual_step));
          std::swap(p, candidate);
          std::swap(r, r_new);
          cost = cost_new;
          if (cost < best_cost) {
            best_p = p;
            best_cost = cost;
          }
          lambda = std::max(lambda * options.lambda_down, 1e-12);
          accepted = true;
          ++result.iterations;
          if (rel_decrease < options.cost_tolerance ||
              step_norm < options.step_tolerance) {
            result.converged = true;
          }
          break;
        }
        lambda *= options.lambda_up;
      }
      if (diverged) {
        break;
      }
      if (!accepted || result.converged) {
        // Either lambda blew past its cap (stuck) or we converged.
        stalled = !accepted;
        result.converged = result.converged || !accepted;
        break;
      }
    }

    if (stopped_by_guard) {
      return finish(FitTermination::kDeadlineExceeded);
    }
    if (diverged && attempt < max_restarts &&
        outer_iters < options.max_iterations) {
      ++result.health.restarts;
      DSPOT_COUNT("lm.restarts", 1);
      JitterFromAnchor(best_p, bounds, options, attempt, p);
      ++attempt;
      continue;
    }
    if (diverged || stalled) {
      return finish(FitTermination::kStalled);
    }
    if (result.converged) {
      return finish(FitTermination::kConverged);
    }
    return finish(FitTermination::kMaxIterations);
  }
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
  // Per-call local buffers keep the wrapper safe under the parallel
  // Jacobian, which may invoke it concurrently.
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
