#ifndef DSPOT_TIMESERIES_PEAKS_H_
#define DSPOT_TIMESERIES_PEAKS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "timeseries/series.h"

namespace dspot {

/// A contiguous burst in a residual series: [start, start+width) with the
/// given peak position/height. The shock detector turns these into
/// candidate external shocks.
struct Burst {
  size_t start = 0;
  size_t width = 1;
  size_t peak = 0;
  double peak_value = 0.0;
  /// Sum of residual mass over the burst window.
  double mass = 0.0;
};

/// Maximum number of bursts FindBursts returns (strongest first).
inline constexpr size_t kMaxBursts = 32;

/// Extracts positive bursts from `residual` (typically data minus current
/// model estimate). Returned strongest-peak first, at most kMaxBursts.
/// Missing entries break bursts.
std::vector<Burst> FindBursts(const Series& residual);

/// True iff a burst near tick `t` (within `tolerance`) exists in `bursts`.
bool HasBurstNear(const std::vector<Burst>& bursts, size_t t,
                  size_t tolerance);

/// HasResidualBurst's z-score: a tick bursts when its absolute residual
/// exceeds this many RMS residuals of the explained range.
inline constexpr double kResidualBurstThreshold = 4.0;
/// HasResidualBurst's quorum: bursting ticks needed to fire. Single-tick
/// glitches are cheaper to absorb as noise than as an event.
inline constexpr size_t kResidualBurstQuorum = 2;

/// The residual-burst test behind UpdateFit and the stream engine's
/// triage: does a model whose `estimate` explains the first `explained`
/// ticks of `actual` still explain the ticks after them? sigma is the RMS
/// residual over the explained range (missing ticks skipped); the test
/// fires when at least kResidualBurstQuorum later ticks deviate by more
/// than kResidualBurstThreshold * sigma, or when sigma <= 0 — a
/// degenerate noise floor (nothing explained, or a perfect fit) cannot
/// calibrate a z-score, so the caller re-detects. `estimate` must cover
/// `actual`.
bool HasResidualBurst(std::span<const double> actual,
                      std::span<const double> estimate, size_t explained);

}  // namespace dspot

#endif  // DSPOT_TIMESERIES_PEAKS_H_
