#ifndef DSPOT_EPIDEMICS_SIR_FAMILY_H_
#define DSPOT_EPIDEMICS_SIR_FAMILY_H_

#include <cstddef>
#include <span>

#include "common/statusor.h"
#include "timeseries/series.h"

namespace dspot {

/// Classic compartmental epidemic models, used by the paper as accuracy
/// baselines (Fig. 9). Discrete-time, with the infection term normalized as
/// beta * (S/N) * I so that beta, delta, gamma are per-capita rates of O(1)
/// (this matches the magnitudes the paper reports, e.g. beta = 0.5014).
/// The observed signal is the infective count I(t).

/// SI: susceptible -> infective, no recovery.
struct SiParams {
  double population = 1.0;  ///< N
  double beta = 0.1;        ///< per-capita infection rate
  double i0 = 1.0;          ///< I(0)
};

/// SIR: susceptible -> infective -> recovered (permanent immunity).
struct SirParams {
  double population = 1.0;
  double beta = 0.1;
  double delta = 0.1;  ///< recovery rate
  double i0 = 1.0;
};

/// SIRS: SIR with waning immunity (recovered -> susceptible at rate gamma).
/// This is structurally the paper's SIV system without shocks or growth.
struct SirsParams {
  double population = 1.0;
  double beta = 0.1;
  double delta = 0.1;
  double gamma = 0.05;  ///< immunity-loss rate
  double i0 = 1.0;
};

/// Simulates the model for `n_ticks` steps and returns I(t), t = 0..n-1.
/// Compartments are clamped to stay non-negative.
Series SimulateSi(const SiParams& params, size_t n_ticks);
Series SimulateSir(const SirParams& params, size_t n_ticks);
Series SimulateSirs(const SirsParams& params, size_t n_ticks);

/// In-place forms writing I(t) into caller-owned storage (the horizon is
/// `out.size()`); the Series overloads delegate here, so both flavors run
/// the same floating-point recurrence. These keep the LM residual loops of
/// the fitters allocation-free.
void SimulateSiInto(const SiParams& params, std::span<double> out);
void SimulateSirInto(const SirParams& params, std::span<double> out);
void SimulateSirsInto(const SirsParams& params, std::span<double> out);

/// Diagnostics common to the epidemic fits.
struct EpidemicFitInfo {
  double rmse = 0.0;
  int lm_iterations = 0;
};

struct SiFit {
  SiParams params;
  EpidemicFitInfo info;
};
struct SirFit {
  SirParams params;
  EpidemicFitInfo info;
};
struct SirsFit {
  SirsParams params;
  EpidemicFitInfo info;
};

/// Fits the model to `data` (missing entries skipped) with multi-start
/// Levenberg-Marquardt. Returns InvalidArgument for series shorter than
/// 8 observed points.
StatusOr<SiFit> FitSi(const Series& data);
StatusOr<SirFit> FitSir(const Series& data);
StatusOr<SirsFit> FitSirs(const Series& data);

}  // namespace dspot

#endif  // DSPOT_EPIDEMICS_SIR_FAMILY_H_
