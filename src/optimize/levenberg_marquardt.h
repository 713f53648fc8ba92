#ifndef DSPOT_OPTIMIZE_LEVENBERG_MARQUARDT_H_
#define DSPOT_OPTIMIZE_LEVENBERG_MARQUARDT_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "guard/guard.h"
#include "linalg/matrix.h"
#include "linalg/solvers.h"
#include "optimize/objective.h"

namespace dspot {

/// Fills the Gauss-Newton normal equations at `params`: `*jtj` (pre-sized
/// num_params x num_params by the solver, every entry to be written) with
/// J^T J and `jtr` (num_params) with J^T r, where J is the Jacobian
/// dr_i/dp_j of the residual vector and `residuals` is r(params), already
/// evaluated by the solver. Supplies closed-form / forward-mode
/// derivatives in place of the solver's forward-difference Jacobian.
using NormalEquationsFn = std::function<Status(
    std::span<const double> params, std::span<const double> residuals,
    Matrix* jtj, std::span<double> jtr)>;

/// Configuration for the Levenberg-Marquardt solver.
struct LmOptions {
  /// Maximum number of accepted iterations.
  int max_iterations = 100;
  /// Stop when the relative decrease of the cost falls below this.
  double cost_tolerance = 1e-10;
  /// Stop when the infinity-norm of the step falls below this.
  double step_tolerance = 1e-10;
  /// Stop when the infinity-norm of the gradient falls below this.
  double gradient_tolerance = 1e-12;
  /// Initial damping factor lambda.
  double initial_lambda = 1e-3;
  /// Multiplicative lambda update on rejected / accepted steps.
  double lambda_up = 10.0;
  double lambda_down = 0.3;
  /// Cap beyond which the solve gives up increasing lambda.
  double max_lambda = 1e12;
  /// Relative step for the forward-difference Jacobian.
  double jacobian_step = 1e-6;
  /// Analytic normal equations of the residual function. When set, each
  /// outer iteration calls it once, inside the `lm.jacobian` span, instead
  /// of running the O(num_params) re-evaluations of the forward-difference
  /// Jacobian and forming J^T J and J^T r from it (for the SIV recurrence
  /// one tangent-linear pass yields both; kernels::SivNormalEquationsInto).
  /// Leave unset for the numeric path.
  NormalEquationsFn normal_equations;
  /// Worker threads for evaluating numeric-Jacobian columns (0 = hardware
  /// concurrency, 1 = serial). Each column probe is independent, so the
  /// Jacobian — and therefore the whole solve — is bit-identical at any
  /// thread count. With more than one thread the residual function must
  /// be safe to call concurrently (each call gets its own probe vector
  /// and residual buffer).
  size_t num_threads = 1;
  /// Columns are only parallelized once the parameter count reaches this
  /// grain threshold; below it, the per-task overhead outweighs the probe
  /// work (the Δ-SPOT base fit has 5 parameters and stays serial —
  /// parallelism comes from the keyword/location layers above it).
  size_t parallel_jacobian_min_params = 8;
  /// Divergence recovery: when the cost turns non-finite (or blows past
  /// 1e100) — at the initial point or on a trial step — the solver rewinds
  /// to its best-so-far iterate and retries from a deterministically
  /// jittered start, up to this many times. 0 disables recovery (a
  /// non-finite initial cost is then an immediate NumericalError, the
  /// pre-guard behavior). Restarts share the max_iterations budget, so
  /// recovery never multiplies the worst-case work.
  int max_restarts = 2;
  /// Relative magnitude of the restart jitter around the rewind anchor.
  double restart_jitter = 0.05;
  /// Seed for the restart jitter; attempt k draws from
  /// Random(restart_seed).Child(k), so recovery is a pure function of the
  /// options — bit-identical across runs and thread counts.
  uint64_t restart_seed = 0x5eedfa17ULL;
  /// Deadline/cancellation pair, checked once per outer iteration. On
  /// deadline expiry the solver returns OK with its best-so-far iterate
  /// and health.termination == kDeadlineExceeded; on cancellation it
  /// returns Status::Cancelled. Inactive by default.
  GuardContext guard;
};

/// Diagnostics returned alongside the solution.
struct LmResult {
  std::vector<double> params;
  /// 0.5 * sum of squared residuals at the solution.
  double final_cost = 0.0;
  double initial_cost = 0.0;
  int iterations = 0;
  /// True if a convergence criterion (rather than the iteration cap) fired.
  bool converged = false;
  /// Restarts taken, wall time, and why the solve stopped (kConverged /
  /// kStalled / kMaxIterations / kDeadlineExceeded).
  FitHealth health;
};

/// Scratch storage for the workspace-based LevenbergMarquardt overload.
/// One workspace serves any sequence of solves (sizes may vary between
/// solves); buffers retain capacity, so repeated solves of same-shaped
/// problems — and every iteration within one solve — allocate nothing.
/// Not thread-safe: concurrent solves need one workspace per worker.
struct LmWorkspace {
  std::vector<double> p;
  std::vector<double> r;
  std::vector<double> r_new;
  std::vector<double> candidate;
  std::vector<double> actual_step;
  std::vector<double> jtr;
  std::vector<double> neg_jtr;
  std::vector<double> step;
  /// Serial numeric-Jacobian scratch (parallel blocks own their scratch).
  std::vector<double> probe;
  std::vector<double> probe_r;
  /// Best-so-far iterate across divergence-recovery restarts.
  std::vector<double> best_p;
  Matrix jac;
  Matrix jtj;
  Matrix damped;
  LdltWorkspace ldlt;
};

/// Minimizes 0.5 * ||r(p)||^2 with the Levenberg-Marquardt algorithm
/// (Levenberg 1944, as cited by the paper), using a forward-difference
/// Jacobian (or `options.normal_equations`) and box constraints enforced
/// by clamped steps. Steps that do not decrease the cost are rejected and
/// the damping is increased.
///
/// `initial` must lie inside `bounds` (it is clamped if not). The residual
/// function must be deterministic; without the hook it is called O(np)
/// times per iteration.
StatusOr<LmResult> LevenbergMarquardt(const ResidualFn& residual_fn,
                                      const std::vector<double>& initial,
                                      const Bounds& bounds = Bounds(),
                                      const LmOptions& options = LmOptions());

/// Workspace-based core: the residual function writes into a caller-sized
/// buffer of `num_residuals` entries and all solver scratch lives in
/// `*workspace`, so iterations allocate nothing once the workspace is warm.
/// Runs the exact same floating-point sequence as the allocating overload
/// (which is now an adapter over this one), so results are bit-identical.
StatusOr<LmResult> LevenbergMarquardt(const ResidualIntoFn& residual_fn,
                                      size_t num_residuals,
                                      const std::vector<double>& initial,
                                      const Bounds& bounds,
                                      const LmOptions& options,
                                      LmWorkspace* workspace);

}  // namespace dspot

#endif  // DSPOT_OPTIMIZE_LEVENBERG_MARQUARDT_H_
