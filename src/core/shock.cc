#include "core/shock.h"

#include <algorithm>
#include <sstream>

namespace dspot {

size_t Shock::NumOccurrences(size_t n_ticks) const {
  if (start >= n_ticks) {
    return 0;
  }
  if (!IsCyclic()) {
    return 1;
  }
  return (n_ticks - 1 - start) / period + 1;
}

size_t Shock::OccurrenceIndexAt(size_t t) const {
  if (t < start) {
    return kNpos;
  }
  const size_t offset = t - start;
  if (!IsCyclic()) {
    return offset < width ? 0 : kNpos;
  }
  const size_t m = offset / period;
  return (offset - m * period) < width ? m : kNpos;
}

double Shock::GlobalStrengthAt(size_t t) const {
  const size_t m = OccurrenceIndexAt(t);
  if (m == kNpos) {
    return 0.0;
  }
  if (m < global_strengths.size()) {
    return global_strengths[m];
  }
  return base_strength;
}

size_t Shock::DeviatingOccurrences() const {
  size_t count = 0;
  for (double s : global_strengths) {
    if (s != base_strength) ++count;
  }
  return count;
}

double Shock::LocalStrengthAt(size_t t, size_t location) const {
  const size_t m = OccurrenceIndexAt(t);
  if (m == kNpos) {
    return 0.0;
  }
  if (local_strengths.empty()) {
    // LocalFit has not run: fall back to the global strength.
    return GlobalStrengthAt(t);
  }
  if (location >= local_strengths.cols()) {
    return 0.0;
  }
  if (m < local_strengths.rows()) {
    return local_strengths(m, location);
  }
  // Beyond the fitted range (forecasting): this location's mean strength.
  double sum = 0.0;
  for (size_t r = 0; r < local_strengths.rows(); ++r) {
    sum += local_strengths(r, location);
  }
  return local_strengths.rows() == 0
             ? 0.0
             : sum / static_cast<double>(local_strengths.rows());
}

std::string Shock::ToString() const {
  std::ostringstream os;
  os << "shock(kw=" << keyword << ", t_s=" << start << ", t_w=" << width;
  if (IsCyclic()) {
    os << ", t_p=" << period;
  } else {
    os << ", t_p=inf";
  }
  os << ", occurrences=" << global_strengths.size() << ")";
  return os.str();
}

std::vector<double> BuildGlobalEpsilon(const std::vector<Shock>& shocks,
                                       size_t keyword, size_t n_ticks) {
  std::vector<double> eps;
  BuildGlobalEpsilonInto(shocks, keyword, n_ticks, &eps);
  return eps;
}

std::vector<double> BuildLocalEpsilon(const std::vector<Shock>& shocks,
                                      size_t keyword, size_t location,
                                      size_t n_ticks) {
  std::vector<double> eps;
  BuildLocalEpsilonInto(shocks, keyword, location, n_ticks, &eps);
  return eps;
}

namespace {

/// Ticks covered by one occurrence: a cyclic shock's occurrence window is
/// capped at the period, because OccurrenceIndexAt attributes each tick to
/// the most recent occurrence (so with width >= period the next occurrence
/// owns the overlap). This is what makes the windowed sweep below add at
/// most one contribution per (tick, shock), matching the per-tick scan
/// exactly.
size_t OccurrenceWindow(const Shock& shock) {
  return shock.IsCyclic() ? std::min(shock.width, shock.period) : shock.width;
}

}  // namespace

void BuildGlobalEpsilonInto(const std::vector<Shock>& shocks, size_t keyword,
                            size_t n_ticks, std::vector<double>* out) {
  BuildGlobalEpsilonTailInto(shocks, keyword, 0, n_ticks, out);
}

void BuildGlobalEpsilonTailInto(const std::vector<Shock>& shocks,
                                size_t keyword, size_t begin, size_t n_ticks,
                                std::vector<double>* out) {
  out->assign(n_ticks - begin, 1.0);
  std::vector<double>& eps = *out;
  for (const Shock& shock : shocks) {
    if (shock.keyword != keyword) continue;
    const size_t occurrences = shock.NumOccurrences(n_ticks);
    const size_t window = OccurrenceWindow(shock);
    for (size_t m = 0; m < occurrences; ++m) {
      const double strength = m < shock.global_strengths.size()
                                  ? shock.global_strengths[m]
                                  : shock.base_strength;
      // Adding 0.0 is an exact no-op, so skipping keeps bit-identity.
      if (strength == 0.0) continue;
      const size_t first = shock.start + m * shock.period;
      const size_t end = std::min(first + window, n_ticks);
      for (size_t t = std::max(first, begin); t < end; ++t) {
        eps[t - begin] += strength;
      }
    }
  }
}

void BuildLocalEpsilonInto(const std::vector<Shock>& shocks, size_t keyword,
                           size_t location, size_t n_ticks,
                           std::vector<double>* out) {
  out->assign(n_ticks, 1.0);
  std::vector<double>& eps = *out;
  for (const Shock& shock : shocks) {
    if (shock.keyword != keyword) continue;
    const size_t occurrences = shock.NumOccurrences(n_ticks);
    const size_t window = OccurrenceWindow(shock);
    const Matrix& local = shock.local_strengths;
    for (size_t m = 0; m < occurrences; ++m) {
      // Mirrors Shock::LocalStrengthAt branch for branch.
      double strength;
      if (local.empty()) {
        strength = m < shock.global_strengths.size()
                       ? shock.global_strengths[m]
                       : shock.base_strength;
      } else if (location >= local.cols()) {
        strength = 0.0;
      } else if (m < local.rows()) {
        strength = local(m, location);
      } else {
        double sum = 0.0;
        for (size_t r = 0; r < local.rows(); ++r) {
          sum += local(r, location);
        }
        strength =
            local.rows() == 0 ? 0.0 : sum / static_cast<double>(local.rows());
      }
      if (strength == 0.0) continue;
      const size_t begin = shock.start + m * shock.period;
      const size_t end = std::min(begin + window, n_ticks);
      for (size_t t = begin; t < end; ++t) {
        eps[t] += strength;
      }
    }
  }
}

void AddOccurrenceStrengthsInto(const Shock& shock,
                                std::span<const double> strengths,
                                std::span<double> epsilon) {
  const size_t n_ticks = epsilon.size();
  const size_t occurrences =
      std::min(shock.NumOccurrences(n_ticks), strengths.size());
  const size_t window = OccurrenceWindow(shock);
  for (size_t m = 0; m < occurrences; ++m) {
    const double strength = strengths[m];
    if (strength == 0.0) continue;
    const size_t begin = shock.start + m * shock.period;
    const size_t end = std::min(begin + window, n_ticks);
    for (size_t t = begin; t < end; ++t) {
      epsilon[t] += strength;
    }
  }
}

}  // namespace dspot
