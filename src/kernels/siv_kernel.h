#ifndef DSPOT_KERNELS_SIV_KERNEL_H_
#define DSPOT_KERNELS_SIV_KERNEL_H_

#include <cstddef>
#include <span>

#include "kernels/dual.h"

namespace dspot {
namespace kernels {

/// The SIV scalar parameters. A leaf-layer POD (kernels must not depend
/// on core/); core builds it from a keyword's parameters with
/// KernelParams (core/simulate.h).
struct SivParams {
  double population = 1.0;
  double beta = 0.1;
  double delta = 0.1;
  double gamma = 0.05;
  double i0 = 1.0;
};

/// Parameter order of the Jacobian columns produced by SivJacobianInto:
/// {population, beta, delta, gamma, i0} — the same order GlobalFit packs
/// its LM parameter vector.
inline constexpr size_t kSivNumParams = 5;

/// State of the SIV recurrence at the start of one tick: the floored
/// population N (constant over a run) and the three compartments. A run
/// from tick 0 starts at SivInitialStateT; any run can be continued from
/// the state a previous one left behind.
template <typename T>
struct SivStateT {
  T n;
  T s;
  T i;
  T v;
};
using SivState = SivStateT<double>;

/// The state at tick 0: N = max(population, 1e-9), I = clamp(i0, 0, N),
/// S = N - I, V = 0.
template <typename T>
SivStateT<T> SivInitialStateT(const T& population, const T& i0) {
  const T n = TMax(population, T(1e-9));
  const T i = TClamp(i0, T(0.0), n);
  return {n, n - i, i, T(0.0)};
}

/// The SIV recurrence (paper Model 1), templated over the scalar type so
/// one definition serves both the production double path and the
/// forward-mode Dual path (all parameter derivatives in a single pass).
///
/// Runs out.size() ticks from `*state`, writing I of the k-th tick into
/// out[k], and leaves `*state` at the tick after the last. `epsilon` /
/// `eta` are indexed like `out` (element k belongs to the run's k-th tick)
/// and may be shorter than it: missing ticks use eps = 1 / eta = 0. A run
/// split at any tick into two calls gives the same bits as one call,
/// because the second call continues from exactly the values the loop
/// would have carried. Allocation-free.
template <typename T>
void AdvanceSivT(const T& beta, const T& delta_in, const T& gamma_in,
                 std::span<const double> epsilon, std::span<const double> eta,
                 SivStateT<T>* state, std::span<T> out) {
  const T n = state->n;
  T s = state->s;
  T i = state->i;
  T v = state->v;
  const T delta = TClamp(delta_in, T(0.0), T(1.0));
  const T gamma = TClamp(gamma_in, T(0.0), T(1.0));

  const size_t n_ticks = out.size();
  for (size_t t = 0; t < n_ticks; ++t) {
    out[t] = i;

    const double eps = t < epsilon.size() ? epsilon[t] : 1.0;
    const double eta_t = t < eta.size() ? eta[t] : 0.0;
    const T raw_infect = beta * (s / n) * T(eps) * i * T(1.0 + eta_t);
    const T infect = TClamp(raw_infect, T(0.0), s);
    const T recover = delta * i;
    const T wane = gamma * v;

    s += wane - infect;
    i += infect - recover;
    v += recover - wane;
  }
  state->s = s;
  state->i = i;
  state->v = v;
}

/// A whole run from tick 0. Instantiated for double this is the exact
/// operation sequence of the original scalar SimulateSivInto —
/// TMax/TClamp reproduce std::max/std::clamp operand-for-operand — so
/// outputs are bit-identical to the seed kernel (asserted by
/// tests/kernels_test.cc).
template <typename T>
void SimulateSivT(const T& population, const T& beta, const T& delta_in,
                  const T& gamma_in, const T& i0,
                  std::span<const double> epsilon, std::span<const double> eta,
                  std::span<T> out) {
  SivStateT<T> state = SivInitialStateT(population, i0);
  AdvanceSivT(beta, delta_in, gamma_in, epsilon, eta, &state, out);
}

/// Double instantiation as a plain function: the hot kernel every fit
/// residual, forecast and simulation in core runs.
void SimulateSivScalarInto(const SivParams& params,
                           std::span<const double> epsilon,
                           std::span<const double> eta,
                           std::span<double> out);

/// The double-path state at tick 0 of `params`.
SivState SivInitialState(const SivParams& params);

/// Continues a run: out.size() ticks from `*state` (AdvanceSivT for
/// double). `params.population` and `params.i0` are not read — they only
/// shape the initial state. SimulateSivScalarInto is this call from
/// SivInitialState, so a prefix run plus a resume reproduces it bit for
/// bit.
void ResumeSivScalarInto(const SivParams& params,
                         std::span<const double> epsilon,
                         std::span<const double> eta, SivState* state,
                         std::span<double> out);

/// Analytic Jacobian of I(t) with respect to the five SIV parameters via
/// one forward-mode Dual<5> pass: for each observed tick observed[k],
/// writes dI(observed[k])/d{population,beta,delta,gamma,i0} into
/// jac[k * row_stride + 0..4] (row-major, caller-owned). The reference for
/// SivNormalEquationsInto, which fits use instead. `n_ticks` is the
/// simulation horizon; every observed index must be < n_ticks.
/// Allocation-free.
void SivJacobianInto(const SivParams& params, std::span<const double> epsilon,
                     std::span<const double> eta,
                     std::span<const size_t> observed, size_t n_ticks,
                     double* jac, size_t row_stride);

/// Gauss-Newton normal equations of the residual r_k = I(observed[k]) -
/// data, fused into one tangent-linear pass: writes J^T J into jtj (5 x 5,
/// row-major, both triangles) and J^T r into jtr (5), where row k of J is
/// dI(observed[k])/d{population,beta,delta,gamma,i0} and `residuals[k]`
/// is r_k. The five derivatives ride in SIMD lanes and every operation
/// matches the Dual<5> pass of SivJacobianInto; the sums are taken in
/// Matrix::GramInto / TransposedTimesInto row order with their exact-zero
/// skips, so the result is bit-identical to SivJacobianInto followed by
/// those two (asserted by tests/kernels_test.cc) without materializing J.
/// `observed` is ascending and every index < n_ticks. Allocation-free.
void SivNormalEquationsInto(const SivParams& params,
                            std::span<const double> epsilon,
                            std::span<const double> eta,
                            std::span<const size_t> observed,
                            std::span<const double> residuals, size_t n_ticks,
                            double* jtj, double* jtr);

/// Structure-of-arrays batch of independent SIV simulations: lane l runs
/// the recurrence with parameters {population[l], beta[l], ...} and
/// per-tick schedules epsilon[t * count + l] / eta[t * count + l].
/// Null epsilon/eta mean eps = 1 / eta = 0 for every lane and tick
/// (non-null arrays must cover all n_ticks * count entries — the caller
/// pads short schedules with the same defaults when packing).
struct SivBatchSoA {
  const double* population = nullptr;
  const double* beta = nullptr;
  const double* delta = nullptr;
  const double* gamma = nullptr;
  const double* i0 = nullptr;
  const double* epsilon = nullptr;
  const double* eta = nullptr;
};

/// Runs `count` independent SIV simulations for n_ticks steps, writing
/// I(t) of lane l to out[t * count + l]. SIMD across lanes (the serial
/// dependency is across ticks, so vectorization happens over concurrent
/// simulations, not time); each lane performs the identical operation
/// sequence as SimulateSivScalarInto, so per-lane outputs are
/// BIT-IDENTICAL to the scalar kernel for finite inputs (see the policy
/// in dspot_simd.h; NaN/inf schedules are outside the contract because
/// SIMD min/max NaN semantics differ from std::clamp's). The count %
/// kNumLanes remainder lanes run as one more vector, padded with copies of
/// the last lane whose outputs are dropped, so a batch of up to kNumLanes
/// lanes costs about one scalar run.
void SimulateSivBatchInto(const SivBatchSoA& batch, size_t count,
                          size_t n_ticks, double* out);

/// Per-lane recurrence state of a batch, lane l at index l of each array
/// (the SoA form of SivState).
struct SivBatchState {
  double* n = nullptr;
  double* s = nullptr;
  double* i = nullptr;
  double* v = nullptr;
};

/// Continues `count` runs for n_steps ticks from `*state`: lane l starts
/// from (n[l], s[l], i[l], v[l]) with rates beta/delta/gamma of `batch`
/// (its population/i0 are not read), reads its schedules at
/// epsilon/eta[k * count + l] for the k-th step, writes out[k * count +
/// l], and leaves its state at the step after the last. Lane for lane it
/// is ResumeSivScalarInto, under the same finite-input contract as
/// SimulateSivBatchInto, which is this call from each lane's initial
/// state.
void ResumeSivBatchInto(const SivBatchSoA& batch, const SivBatchState& state,
                        size_t count, size_t n_steps, double* out);

}  // namespace kernels
}  // namespace dspot

#endif  // DSPOT_KERNELS_SIV_KERNEL_H_
