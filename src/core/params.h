#ifndef DSPOT_CORE_PARAMS_H_
#define DSPOT_CORE_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "linalg/matrix.h"
#include "core/shock.h"

namespace dspot {

/// Global parameters of one keyword: its row of B_G = {N, beta, delta,
/// gamma} and of R_G = {eta_0, t_eta}. `i0` (initial infectives) is an
/// implementation parameter needed to start the recurrence; the paper
/// leaves it implicit.
struct KeywordGlobalParams {
  double population = 1.0;  ///< N_i: total user population of the keyword
  double beta = 0.1;        ///< contact rate (per capita; see SimulateSiv)
  double delta = 0.1;       ///< interest-loss rate
  double gamma = 0.05;      ///< vigilant -> susceptible return rate
  double i0 = 1.0;          ///< I(0)

  /// Population growth effect (P3). `growth_start == kNpos` disables it.
  double growth_rate = 0.0;    ///< eta_0i
  size_t growth_start = kNpos; ///< t_eta_i

  bool has_growth() const { return growth_start != kNpos; }
};

/// One keyword's fitted model in fit-local ticks (tick 0 is the first
/// fitted tick). Fits return it, the stream and the serve registry hold
/// it, the keyword-model codec writes it, warm refits seed from it and
/// SimulateKeywordInto forecasts with it.
struct KeywordModel {
  KeywordGlobalParams params;
  /// Tagged with the keyword the fit ran as: 0 outside a multi-keyword fit.
  std::vector<Shock> shocks;
  uint64_t fit_ticks = 0;  ///< length of the fitted range
  double cost_bits = 0.0;  ///< per-keyword MDL total
  double rmse = 0.0;
};

/// The complete Δ-SPOT parameter set F = {B_G, B_L, R_G, R_L, S}
/// (Definition 1) for a d-keyword, l-location, n-tick tensor.
struct ModelParamSet {
  /// d rows of B_G and R_G, merged per keyword.
  std::vector<KeywordGlobalParams> global;

  /// B_L (d x l): the potential local population b^(L)_ij of keyword i in
  /// location j, in absolute counts. Empty before LocalFit.
  Matrix base_local;

  /// R_L (d x l): the local population growth rate r^(L)_ij. Empty before
  /// LocalFit.
  Matrix growth_local;

  /// S: the external shock tensor, a flat list of shocks tagged with their
  /// keyword.
  std::vector<Shock> shocks;

  /// Dimensions the set was fitted on.
  size_t num_keywords = 0;
  size_t num_locations = 0;
  size_t num_ticks = 0;

  /// Shocks belonging to keyword i (indices into `shocks`).
  std::vector<size_t> ShockIndicesFor(size_t keyword) const;

  /// Number of shocks of keyword i.
  size_t ShockCountFor(size_t keyword) const;

  /// Keyword i's warm-start seed: its parameters and shocks, with
  /// fit_ticks = num_ticks (cost and RMSE stay 0; a refit reads neither).
  KeywordModel KeywordModelFor(size_t keyword) const;

  /// True once LocalFit has populated the local matrices.
  bool has_local() const { return !base_local.empty(); }

  /// Debug rendering of the per-keyword parameters.
  std::string ToString() const;
};

}  // namespace dspot

#endif  // DSPOT_CORE_PARAMS_H_
