#ifndef DSPOT_CORE_SHOCK_H_
#define DSPOT_CORE_SHOCK_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "linalg/matrix.h"

namespace dspot {

/// One external shock event s = {s^(D), s^(N), s^(L)} (Definition 6).
///
/// * s^(D): which keyword the shock belongs to (`keyword`).
/// * s^(N): the time descriptor {t_p, t_s, t_w} — periodicity, start,
///   width. `period == kNonCyclic` (0) encodes t_p = infinity, i.e. a
///   one-shot event.
/// * s^(L): per-occurrence strengths. At the global level each of the
///   ceil((n - t_s) / t_p) occurrences carries one strength
///   (`global_strengths`); after LocalFit, `local_strengths` holds the
///   (occurrences x locations) strength matrix of the paper.
///
/// The shock enters the dynamics through the temporal susceptible rate
/// eps(t) = 1 + sum_k f(t; s_k): occurrence m covers ticks
/// [start + m*period, start + m*period + width).
struct Shock {
  /// Sentinel period for non-cyclic (one-shot) shocks.
  static constexpr size_t kNonCyclic = 0;

  size_t keyword = 0;
  size_t period = kNonCyclic;  ///< t_p in ticks; 0 = one-shot
  size_t start = 0;            ///< t_s, first active tick
  size_t width = 1;            ///< t_w in ticks, >= 1

  /// The event's shared strength eps_0 (the single strength of the paper's
  /// single-sequence model). Future occurrences (forecasting) use this.
  double base_strength = 0.0;

  /// Per-occurrence strengths at the global level. Entries equal to
  /// `base_strength` are "default" and cost nothing extra under MDL;
  /// deviating entries are charged individually (mirroring the sparse
  /// s^(L) of Definition 6).
  std::vector<double> global_strengths;

  /// Occurrences x locations strengths (s^(L)); empty until LocalFit.
  /// Zero entries mean "no local reaction" and cost nothing under MDL.
  Matrix local_strengths;

  /// Number of occurrences within a horizon of `n_ticks` ticks.
  size_t NumOccurrences(size_t n_ticks) const;

  /// Occurrence index covering tick `t`, or kNpos when the shock is not
  /// active at `t`. Works for ticks beyond the training range (cyclic
  /// shocks keep recurring), which forecasting relies on.
  size_t OccurrenceIndexAt(size_t t) const;

  /// Global-level strength contribution at tick `t` (0 if inactive).
  /// Occurrences past the fitted range use `base_strength`, so a cyclic
  /// event keeps firing in forecasts.
  double GlobalStrengthAt(size_t t) const;

  /// Number of occurrences whose fitted strength deviates from
  /// `base_strength` (these are the individually MDL-charged entries).
  size_t DeviatingOccurrences() const;

  /// Local-level strength contribution at tick `t` for location `j`.
  /// Falls back to `GlobalStrengthAt` scaled by nothing if the local
  /// matrix is empty; occurrences beyond the matrix reuse that location's
  /// mean strength.
  double LocalStrengthAt(size_t t, size_t location) const;

  /// True for t_p != infinity.
  bool IsCyclic() const { return period != kNonCyclic; }

  /// Debug rendering, e.g. "shock(kw=0, t_s=28, t_w=3, t_p=104, k=6)".
  std::string ToString() const;
};

/// eps(t) = 1 + sum of global strengths of `shocks` belonging to `keyword`,
/// evaluated per tick over [0, n_ticks).
std::vector<double> BuildGlobalEpsilon(const std::vector<Shock>& shocks,
                                       size_t keyword, size_t n_ticks);

/// Local-level eps(t) for (keyword, location).
std::vector<double> BuildLocalEpsilon(const std::vector<Shock>& shocks,
                                      size_t keyword, size_t location,
                                      size_t n_ticks);

/// Builders into caller-owned storage (`*out` is resized to n_ticks and
/// fully overwritten, so its capacity is reused across calls). They sweep
/// occurrence windows instead of scanning every tick per shock; since each
/// tick receives at most one contribution per shock, the accumulated
/// values are bit-identical to the per-tick scan (which delegates here).
void BuildGlobalEpsilonInto(const std::vector<Shock>& shocks, size_t keyword,
                            size_t n_ticks, std::vector<double>* out);
/// The ticks [begin, n_ticks) of BuildGlobalEpsilonInto's schedule, with
/// (*out)[k] holding tick begin + k (begin <= n_ticks). Each tick sums the
/// same contributions in the same order, so the values are bit-identical
/// to the full schedule's; BuildGlobalEpsilonInto is the begin = 0 case.
void BuildGlobalEpsilonTailInto(const std::vector<Shock>& shocks,
                                size_t keyword, size_t begin, size_t n_ticks,
                                std::vector<double>* out);
void BuildLocalEpsilonInto(const std::vector<Shock>& shocks, size_t keyword,
                           size_t location, size_t n_ticks,
                           std::vector<double>* out);

/// Adds candidate occurrence strengths of one shock into an existing
/// epsilon schedule: occurrence m contributes `strengths[m]` over its
/// window (occurrences beyond `strengths.size()` contribute nothing).
/// Windowed counterpart of the per-tick `OccurrenceIndexAt` scan used by
/// LocalFit's coordinate descent, where the strengths under test live
/// outside the shock.
void AddOccurrenceStrengthsInto(const Shock& shock,
                                std::span<const double> strengths,
                                std::span<double> epsilon);

}  // namespace dspot

#endif  // DSPOT_CORE_SHOCK_H_
