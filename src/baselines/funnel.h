#ifndef DSPOT_BASELINES_FUNNEL_H_
#define DSPOT_BASELINES_FUNNEL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/statusor.h"
#include "epidemics/skips.h"
#include "timeseries/series.h"

namespace dspot {

/// FUNNEL-style baseline (after Matsubara et al., KDD 2014 — reference
/// [14]): a seasonally forced SIRS with *one-shot* (non-cyclic) external
/// shocks detected from residual bursts under an MDL criterion. Relative to
/// Δ-SPOT it lacks (a) cyclic shock sharing — every occurrence of an annual
/// event must be paid for as an independent shock — and (b) the population
/// growth effect. Those are exactly the deficits the paper's Fig. 9
/// attributes to it.

/// A single non-cyclic external shock: transmission is multiplied by
/// (1 + strength) during [start, start + width).
struct FunnelShock {
  size_t start = 0;
  size_t width = 1;
  double strength = 0.0;
};

struct FunnelParams {
  SkipsParams base;
  std::vector<FunnelShock> shocks;
};

/// Simulates the shocked, forced SIRS; returns I(t).
Series SimulateFunnel(const FunnelParams& params, size_t n_ticks);

/// In-place form over a horizon of `out.size()` ticks; the Series overload
/// delegates here. Keeps the FitFunnel alternation loop allocation-free.
void SimulateFunnelInto(const FunnelParams& params, std::span<double> out);

struct FunnelFit {
  FunnelParams params;
  double rmse = 0.0;
  /// Total MDL cost (model + data bits) of the accepted fit.
  double total_cost_bits = 0.0;
};

/// Fits the FUNNEL baseline: alternates (base SIRS+forcing fit) with greedy
/// one-shot shock detection, accepting shocks only while the MDL total cost
/// decreases.
StatusOr<FunnelFit> FitFunnel(const Series& data);

/// Local-level refit used for Fig. 9(b): keeps the global dynamics and
/// shock times, rescales population and per-shock strengths to one
/// location's sequence.
StatusOr<FunnelFit> FitFunnelLocal(const Series& local_data,
                                   const FunnelFit& global_fit);

}  // namespace dspot

#endif  // DSPOT_BASELINES_FUNNEL_H_
