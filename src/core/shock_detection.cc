#include "core/shock_detection.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "obs/metrics.h"
#include "timeseries/peaks.h"
#include "timeseries/stats.h"

namespace dspot {

namespace {

/// How far bursts may drift from the exact cycle grid and still count as
/// aligned.
constexpr size_t kAlignmentTolerance = 2;
/// A period is proposed only if at least this many bursts align with it.
constexpr size_t kMinAlignedBursts = 2;
/// Reject period hypotheses with more occurrences than this. External
/// events are rare (annual/biennial/quadrennial in the paper); a dense
/// comb that fires every few ticks is a level effect masquerading as an
/// event (it would shadow the growth term) or plain noise fitting.
constexpr size_t kMaxOccurrences = 16;

/// Distance of `value` from the nearest multiple of `period`.
size_t CycleDrift(size_t value, size_t period) {
  const size_t mod = value % period;
  return std::min(mod, period - mod);
}

/// Median of a small vector (by copy).
size_t MedianOf(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

std::vector<Shock> ProposeShockCandidates(
    const Series& residual, size_t keyword,
    const ShockDetectionOptions& options) {
  DSPOT_SPAN("shock_detection.propose");
  const size_t n = residual.size();
  const std::vector<Burst> bursts = FindBursts(residual);
  if (bursts.empty()) {
    return {};
  }
  const Burst& anchor = bursts[0];

  std::vector<Shock> candidates;
  // Hypothesis 0: one-shot shock at the anchor burst.
  {
    Shock shock;
    shock.keyword = keyword;
    shock.period = Shock::kNonCyclic;
    shock.start = anchor.start;
    shock.width = anchor.width;
    shock.global_strengths.assign(shock.NumOccurrences(n), 0.0);
    candidates.push_back(std::move(shock));
  }
  if (!options.allow_cyclic || bursts.size() < kMinAlignedBursts) {
    DSPOT_COUNT("shock_detection.candidates", candidates.size());
    return candidates;
  }

  // Period hypotheses come from two sources. First, the autocorrelation of
  // the residual itself — robust when occurrence strengths vary enough that
  // burst-gap analysis latches onto every-other-spike periods (2P instead
  // of P).
  std::set<size_t> periods;
  for (size_t p : CandidatePeriods(residual, n / 2)) {
    if (p >= options.min_period) {
      periods.insert(p);
    }
  }
  // Second, gaps between the anchor and every other burst, and integer
  // divisors of those gaps (a biennial event observed 3 times shows gaps
  // 2P and 4P; the divisor walk recovers P).
  for (const Burst& b : bursts) {
    const size_t gap = b.start > anchor.start ? b.start - anchor.start
                                              : anchor.start - b.start;
    if (gap < options.min_period) continue;
    for (size_t div = 1; div <= 4; ++div) {
      const size_t p = gap / div;
      if (p >= options.min_period && gap % div == 0) {
        periods.insert(p);
      }
    }
  }

  struct PeriodScore {
    size_t period;
    size_t aligned;
    size_t earliest_start;
    size_t width;
  };
  std::vector<PeriodScore> scored;
  for (size_t period : periods) {
    // A period below 2 is not a cycle: period 0 would divide by zero in
    // CycleDrift and period 1 aligns every burst with every other, so a
    // degenerate min_period cannot be allowed to reach the scorer.
    if (period < 2) continue;
    // Dense combs are not events (see kMaxOccurrences).
    if ((n / period) + 1 > kMaxOccurrences) {
      continue;
    }
    std::vector<size_t> aligned_starts;
    std::vector<size_t> aligned_widths;
    for (const Burst& b : bursts) {
      const size_t gap = b.start > anchor.start ? b.start - anchor.start
                                                : anchor.start - b.start;
      if (gap == 0 || CycleDrift(gap, period) <= kAlignmentTolerance) {
        aligned_starts.push_back(b.start);
        aligned_widths.push_back(b.width);
      }
    }
    if (aligned_starts.size() < kMinAlignedBursts) continue;
    PeriodScore score;
    score.period = period;
    score.aligned = aligned_starts.size();
    score.earliest_start =
        *std::min_element(aligned_starts.begin(), aligned_starts.end());
    score.width = MedianOf(aligned_widths);
    scored.push_back(score);
  }
  // Prefer hypotheses that explain more bursts; break ties toward longer
  // periods (fewer phantom occurrences to pay for).
  std::sort(scored.begin(), scored.end(),
            [](const PeriodScore& a, const PeriodScore& b) {
              if (a.aligned != b.aligned) return a.aligned > b.aligned;
              return a.period > b.period;
            });
  for (size_t k = 0; k < scored.size() && k < options.max_period_candidates;
       ++k) {
    Shock shock;
    shock.keyword = keyword;
    shock.period = scored[k].period;
    shock.start = scored[k].earliest_start;
    shock.width = std::max<size_t>(scored[k].width, 1);
    shock.global_strengths.assign(shock.NumOccurrences(n), 0.0);
    candidates.push_back(std::move(shock));
  }
  DSPOT_COUNT("shock_detection.candidates", candidates.size());
  return candidates;
}

}  // namespace dspot
