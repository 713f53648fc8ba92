#ifndef DSPOT_CORE_SCHEDULE_CACHE_H_
#define DSPOT_CORE_SCHEDULE_CACHE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/shock.h"

namespace dspot {

/// BuildEta into caller-owned storage. Leaves `*out` EMPTY when growth is
/// disabled (growth_start == kNpos or growth_rate == 0): the simulator's
/// `t < eta.size()` guard treats missing ticks as eta = 0, so an empty
/// schedule is equivalent to a materialized all-zeros one.
void BuildEtaInto(double growth_rate, size_t growth_start, size_t n_ticks,
                  std::vector<double>* out);

/// The ticks [begin, n_ticks) of BuildEtaInto's schedule, with (*out)[k]
/// holding tick begin + k (begin <= n_ticks); EMPTY when growth is
/// disabled. BuildEtaInto is the begin = 0 case.
void BuildEtaTailInto(double growth_rate, size_t growth_start, size_t begin,
                      size_t n_ticks, std::vector<double>* out);

/// Single-slot memo for the three per-fit schedules (global epsilon, local
/// epsilon, eta). Accessors return a view of an internally owned vector
/// that stays valid until the next call for the same schedule kind.
///
/// Invalidation is by exact key comparison, not hashing: each slot stores
/// a flattened copy of everything the schedule depends on (tick count,
/// keyword/location, and per-shock descriptors + strengths), and rebuilds
/// whenever any of it differs. A hash could silently serve a stale
/// schedule on collision; the exact key cannot. Key comparison is
/// O(total strengths), which is far below the O(n_ticks * shocks) rebuild
/// it saves. NaN strengths never compare equal, so they conservatively
/// force a rebuild.
///
/// Not thread-safe: use one cache per worker (the fit layers keep one in
/// each per-keyword / per-location-block scratch).
class ScheduleCache {
 public:
  /// eps(t) over [0, n_ticks) for `keyword`'s shocks at the global level.
  std::span<const double> GlobalEpsilon(const std::vector<Shock>& shocks,
                                        size_t keyword, size_t n_ticks);

  /// eps(t) over [0, n_ticks) for (keyword, location) at the local level.
  std::span<const double> LocalEpsilon(const std::vector<Shock>& shocks,
                                       size_t keyword, size_t location,
                                       size_t n_ticks);

  /// eta(t) over [0, n_ticks); EMPTY when growth is disabled (see
  /// BuildEtaInto).
  std::span<const double> Eta(double growth_rate, size_t growth_start,
                              size_t n_ticks);

 private:
  struct Slot {
    bool valid = false;
    std::vector<double> key;
    std::vector<double> values;
  };

  /// Returns slot.values after rebuilding it if key_scratch_ differs from
  /// the stored key. `build` fills slot.values from the current inputs.
  template <typename BuildFn>
  std::span<const double> Lookup(Slot* slot, const BuildFn& build);

  Slot global_;
  Slot local_;
  Slot eta_;
  std::vector<double> key_scratch_;
};

}  // namespace dspot

#endif  // DSPOT_CORE_SCHEDULE_CACHE_H_
