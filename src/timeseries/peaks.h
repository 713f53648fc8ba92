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

/// Options for burst extraction.
struct BurstOptions {
  /// A burst begins where the residual exceeds mean + threshold_sigmas *
  /// stddev of the positive part of the residual.
  double threshold_sigmas = 2.0;
  /// Bursts are extended while the residual stays above this fraction of
  /// the entry threshold.
  double sustain_fraction = 0.4;
  /// Minimum / maximum admissible widths.
  size_t min_width = 1;
  size_t max_width = 26;
  /// Maximum number of bursts returned (strongest first).
  size_t max_bursts = 32;
};

/// Extracts positive bursts from `residual` (typically data minus current
/// model estimate). Returned strongest-peak first. Missing entries break
/// bursts.
std::vector<Burst> FindBursts(const Series& residual,
                              const BurstOptions& options = BurstOptions());

/// True iff a burst near tick `t` (within `tolerance`) exists in `bursts`.
bool HasBurstNear(const std::vector<Burst>& bursts, size_t t,
                  size_t tolerance);

/// The residual-burst test behind UpdateFit and the stream engine's
/// triage: does a model whose `estimate` explains the first `explained`
/// ticks of `actual` still explain the ticks after them? sigma is the RMS
/// residual over the explained range (missing ticks skipped); the test
/// fires when at least `quorum` later ticks deviate by more than
/// `threshold` * sigma, or when sigma <= 0 — a degenerate noise floor
/// (nothing explained, or a perfect fit) cannot calibrate a z-score, so
/// the caller re-detects. `estimate` must cover `actual`.
bool HasResidualBurst(std::span<const double> actual,
                      std::span<const double> estimate, size_t explained,
                      double threshold, size_t quorum);

}  // namespace dspot

#endif  // DSPOT_TIMESERIES_PEAKS_H_
