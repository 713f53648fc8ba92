#include "core/schedule_cache.h"

#include <algorithm>

namespace dspot {

namespace {

/// Flattens everything a keyword's global epsilon depends on: per-shock
/// time descriptors and strengths, in shock order (reordering rebuilds).
/// size_t fields are exact as doubles (tick counts are far below 2^53).
void AppendGlobalShockKey(const std::vector<Shock>& shocks, size_t keyword,
                          std::vector<double>* key) {
  for (const Shock& shock : shocks) {
    if (shock.keyword != keyword) continue;
    key->push_back(static_cast<double>(shock.period));
    key->push_back(static_cast<double>(shock.start));
    key->push_back(static_cast<double>(shock.width));
    key->push_back(shock.base_strength);
    key->push_back(static_cast<double>(shock.global_strengths.size()));
    for (double s : shock.global_strengths) {
      key->push_back(s);
    }
  }
}

/// Additionally flattens the local-strength column the schedule reads.
void AppendLocalShockKey(const std::vector<Shock>& shocks, size_t keyword,
                         size_t location, std::vector<double>* key) {
  for (const Shock& shock : shocks) {
    if (shock.keyword != keyword) continue;
    const Matrix& local = shock.local_strengths;
    key->push_back(local.empty() ? 0.0 : 1.0);
    key->push_back(static_cast<double>(local.rows()));
    key->push_back(static_cast<double>(local.cols()));
    if (!local.empty() && location < local.cols()) {
      for (size_t r = 0; r < local.rows(); ++r) {
        key->push_back(local(r, location));
      }
    }
  }
}

}  // namespace

void BuildEtaInto(double growth_rate, size_t growth_start, size_t n_ticks,
                  std::vector<double>* out) {
  BuildEtaTailInto(growth_rate, growth_start, 0, n_ticks, out);
}

void BuildEtaTailInto(double growth_rate, size_t growth_start, size_t begin,
                      size_t n_ticks, std::vector<double>* out) {
  if (growth_start == kNpos || growth_rate == 0.0) {
    out->clear();
    return;
  }
  out->assign(n_ticks - begin, 0.0);
  for (size_t t = std::max(growth_start, begin); t < n_ticks; ++t) {
    (*out)[t - begin] = growth_rate;
  }
}

template <typename BuildFn>
std::span<const double> ScheduleCache::Lookup(Slot* slot,
                                              const BuildFn& build) {
  if (!slot->valid || slot->key != key_scratch_) {
    // Swap rather than copy so both vectors keep circulating capacity.
    std::swap(slot->key, key_scratch_);
    build(&slot->values);
    slot->valid = true;
  }
  return slot->values;
}

std::span<const double> ScheduleCache::GlobalEpsilon(
    const std::vector<Shock>& shocks, size_t keyword, size_t n_ticks) {
  key_scratch_.clear();
  key_scratch_.push_back(static_cast<double>(n_ticks));
  key_scratch_.push_back(static_cast<double>(keyword));
  AppendGlobalShockKey(shocks, keyword, &key_scratch_);
  return Lookup(&global_, [&](std::vector<double>* out) {
    BuildGlobalEpsilonInto(shocks, keyword, n_ticks, out);
  });
}

std::span<const double> ScheduleCache::LocalEpsilon(
    const std::vector<Shock>& shocks, size_t keyword, size_t location,
    size_t n_ticks) {
  key_scratch_.clear();
  key_scratch_.push_back(static_cast<double>(n_ticks));
  key_scratch_.push_back(static_cast<double>(keyword));
  key_scratch_.push_back(static_cast<double>(location));
  AppendGlobalShockKey(shocks, keyword, &key_scratch_);
  AppendLocalShockKey(shocks, keyword, location, &key_scratch_);
  return Lookup(&local_, [&](std::vector<double>* out) {
    BuildLocalEpsilonInto(shocks, keyword, location, n_ticks, out);
  });
}

std::span<const double> ScheduleCache::Eta(double growth_rate,
                                           size_t growth_start,
                                           size_t n_ticks) {
  key_scratch_.clear();
  key_scratch_.push_back(growth_rate);
  key_scratch_.push_back(static_cast<double>(growth_start));
  key_scratch_.push_back(static_cast<double>(n_ticks));
  return Lookup(&eta_, [&](std::vector<double>* out) {
    BuildEtaInto(growth_rate, growth_start, n_ticks, out);
  });
}

}  // namespace dspot
