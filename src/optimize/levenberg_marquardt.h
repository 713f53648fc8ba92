#ifndef DSPOT_OPTIMIZE_LEVENBERG_MARQUARDT_H_
#define DSPOT_OPTIMIZE_LEVENBERG_MARQUARDT_H_

#include <chrono>
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

/// Initial damping factor lambda of every solve.
inline constexpr double kLmInitialLambda = 1e-3;

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
  /// Cap beyond which the solve gives up increasing lambda.
  double max_lambda = 1e12;
  /// Analytic normal equations of the residual function. When set, each
  /// outer iteration calls it once, inside the `lm.jacobian` span, instead
  /// of running the O(num_params) re-evaluations of the forward-difference
  /// Jacobian and forming J^T J and J^T r from it (for the SIV recurrence
  /// one tangent-linear pass yields both; kernels::SivNormalEquationsInto).
  /// Leave unset for the numeric path.
  NormalEquationsFn normal_equations;
  /// Divergence recovery: when the cost turns non-finite (or blows past
  /// 1e100) — at the initial point or on a trial step — the solver rewinds
  /// to its best-so-far iterate and retries from a deterministically
  /// jittered start, up to this many times. 0 disables recovery (a
  /// non-finite initial cost is then an immediate NumericalError, the
  /// pre-guard behavior). Restarts share the max_iterations budget, so
  /// recovery never multiplies the worst-case work.
  int max_restarts = 2;
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

/// What a resumable solve waits for between LevenbergMarquardtLockstep's
/// rounds.
enum class LmWait { kResiduals, kNormalEquations, kDone };

/// The scalar state of a resumable solve between LevenbergMarquardtLockstep's
/// rounds; levenberg_marquardt.cc alone reads and writes it.
struct LmSolveState {
  LmWait wait = LmWait::kDone;
  /// The awaited residuals are a trial step's, not an attempt's start's.
  bool trial = false;
  /// A start point had a finite cost (best_p / best_cost are set).
  bool have_best = false;
  bool stopped_by_guard = false;
  /// Per attempt: a trial turned divergent / lambda passed its cap.
  bool diverged = false;
  bool stalled = false;
  /// Outer iterations (one set of normal equations each), budgeted across
  /// attempts, and divergence-recovery attempts taken.
  int outer_iters = 0;
  int attempt = 0;
  double cost = 0.0;
  double best_cost = 0.0;
  double lambda = 0.0;
  std::chrono::steady_clock::time_point start_time;
  /// The error that ended the solve, or OK.
  Status status;
  LmResult result;
};

/// Scratch storage and state of one resumable solve. One workspace serves
/// any sequence of solves (sizes may vary between solves); buffers retain
/// capacity, so repeated solves of same-shaped problems — and every
/// iteration within one solve — allocate nothing.
/// Not thread-safe: concurrent solves need one workspace per worker, and
/// the problems of one lock-step group one workspace each.
struct LmWorkspace {
  std::vector<double> p;
  std::vector<double> r;
  std::vector<double> r_new;
  std::vector<double> candidate;
  std::vector<double> actual_step;
  std::vector<double> jtr;
  std::vector<double> neg_jtr;
  std::vector<double> step;
  /// Numeric-Jacobian scratch.
  std::vector<double> probe;
  std::vector<double> probe_r;
  /// Best-so-far iterate across divergence-recovery restarts.
  std::vector<double> best_p;
  Matrix jac;
  Matrix jtj;
  Matrix damped;
  LdltWorkspace ldlt;
  LmSolveState state;
};

/// One problem of a lock-step group: a solve from `initial` (clamped into
/// `*bounds`) under `*options`, with `num_residuals` residuals, whose
/// scratch and state live in `*workspace`. `bounds` and `options` must be
/// non-null and, like `initial`, outlive the LevenbergMarquardtLockstep
/// call.
struct LmProblem {
  std::span<const double> initial;
  size_t num_residuals = 0;
  const Bounds* bounds = nullptr;
  const LmOptions* options = nullptr;
  LmWorkspace* workspace = nullptr;
};

/// One residual evaluation a lock-step solve waits for: r(params) of
/// problem `problem` into `residuals` (num_residuals entries, every one to
/// be written). A non-OK `status` ends that solve with it, as a failing
/// ResidualIntoFn ends a single solve.
struct LmResidualRequest {
  size_t problem = 0;
  std::span<const double> params;
  std::span<double> residuals;
  Status status;
};

/// Serves one round of residual requests: at most one per problem, in
/// problem order, all independent — so one call may evaluate them
/// together, e.g. as SIMD lanes. Residual functions must be deterministic.
using LmBatchResidualFn =
    std::function<void(std::span<LmResidualRequest> requests)>;

/// Runs independent Levenberg-Marquardt solves in lock-step and returns
/// problem k's outcome in slot k. Each solve is resumable: it asks for one
/// thing at a time, the residuals at a point or the normal equations at
/// its iterate. Every round, one `residuals` call serves every solve that
/// waits for residuals, then each solve that waits for normal equations
/// gets its own `options->normal_equations` call (or forward-difference
/// Jacobian, whose probes are one-request `residuals` calls), inside one
/// `lm.jacobian` span each. Restarts, guard checks, fault-injection draws,
/// counters (`lm.solves`, `lm.iterations`, ...) and the result stay per
/// problem, so each problem's outcome is that of a LevenbergMarquardt
/// call on it alone, bit for bit; only the global order of fault draws
/// interleaves. One `lm.solve` span covers the call.
std::vector<StatusOr<LmResult>> LevenbergMarquardtLockstep(
    std::span<const LmProblem> problems,
    const LmBatchResidualFn& residuals);

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

/// Workspace-based form: the residual function writes into a caller-sized
/// buffer of `num_residuals` entries and all solver scratch lives in
/// `*workspace`, so iterations allocate nothing once the workspace is warm.
/// It is LevenbergMarquardtLockstep over this one problem, whose rounds
/// call `residual_fn` once; the allocating overload above adapts to it, so
/// all three run the same floating-point sequence.
StatusOr<LmResult> LevenbergMarquardt(const ResidualIntoFn& residual_fn,
                                      size_t num_residuals,
                                      const std::vector<double>& initial,
                                      const Bounds& bounds,
                                      const LmOptions& options,
                                      LmWorkspace* workspace);

}  // namespace dspot

#endif  // DSPOT_OPTIMIZE_LEVENBERG_MARQUARDT_H_
