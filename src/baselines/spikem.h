#ifndef DSPOT_BASELINES_SPIKEM_H_
#define DSPOT_BASELINES_SPIKEM_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/statusor.h"
#include "timeseries/series.h"

namespace dspot {

/// SpikeM (after Matsubara, Sakurai, Prakash, Li & Faloutsos, "Rise and
/// fall patterns of information diffusion", KDD 2012 — the paper's
/// reference [13]): the classic model for a single information burst with
/// a power-law decay of infectiveness,
///
///   dB(n+1) = p(n+1) * [ (N - B(n)) * sum_{t=nb..n} (dB(t) + S(t)) * f(n+1-t)
///                        + background ]
///   f(tau)  = beta * tau^{-1.5}
///   S(t)    = shock_size at t == nb, else 0
///   p(n)    = 1 - pa/2 * (sin(2*pi*(n + ps)/pp) + 1)
///
/// The observed signal is dB(n) (mentions per tick). SpikeM nails single
/// memes (sharp rise, power-law fall, daily periodicity) but has exactly
/// one external shock, so it cannot describe multi-event or cyclic-event
/// keywords — a useful contrast baseline for the MemeTracker workload.
struct SpikeMParams {
  double population = 100.0;  ///< N: total available bloggers
  double beta = 1.0;          ///< infectiveness scale
  size_t shock_start = 0;     ///< n_b: tick of the external shock
  double shock_size = 10.0;   ///< S_b
  double background = 0.0;    ///< epsilon: background noise floor
  /// Periodic modulation (daily/weekly dips); period 0 disables it.
  double period = 0.0;               ///< p_p in ticks
  double periodicity_amplitude = 0;  ///< p_a in [0, 1]
  double periodicity_shift = 0.0;    ///< p_s in ticks
};

/// Simulates dB(t) for t = 0..n_ticks-1.
Series SimulateSpikeM(const SpikeMParams& params, size_t n_ticks);

/// Reusable scratch for SimulateSpikeMInto. `decay` caches the
/// beta-independent power-law kernel tau^{-1.5} (recomputed only when the
/// horizon changes — it is by far the most expensive part of the kernel);
/// `kernel` holds beta * decay for the current parameters.
struct SpikeMWorkspace {
  std::vector<double> decay;
  std::vector<double> kernel;
};

/// In-place form over a horizon of `out.size()` ticks; the Series overload
/// delegates here with a throwaway workspace. The LM residual loop of
/// FitSpikeM reuses one workspace across all evaluations.
void SimulateSpikeMInto(const SpikeMParams& params, SpikeMWorkspace* workspace,
                        std::span<double> out);

struct SpikeMFit {
  SpikeMParams params;
  double rmse = 0.0;
};

/// Fits SpikeM without periodic modulation to `data`: grid over the
/// discrete shock start n_b, Levenberg-Marquardt over the continuous
/// parameters for each candidate.
StatusOr<SpikeMFit> FitSpikeM(const Series& data);

}  // namespace dspot

#endif  // DSPOT_BASELINES_SPIKEM_H_
