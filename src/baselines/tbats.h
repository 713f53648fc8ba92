#ifndef DSPOT_BASELINES_TBATS_H_
#define DSPOT_BASELINES_TBATS_H_

#include <cstddef>
#include <vector>

#include "common/statusor.h"
#include "timeseries/series.h"

namespace dspot {

/// TBATS-style exponential smoothing with trigonometric seasonality (after
/// De Livera, Hyndman & Snyder 2011 — reference [8] of the paper). This is
/// the innovations state-space core of TBATS: level, damped trend and `k`
/// trigonometric harmonics of one seasonal period, without the Box-Cox and
/// ARMA-error layers (which matter for variance stabilization, not for the
/// spike-forecasting comparison the paper runs).
struct TbatsConfig {
  /// Seasonal period in ticks; 0 lets `Fit` pick it from ACF candidates.
  size_t period = 0;
  /// Number of trigonometric harmonics.
  size_t harmonics = 3;
};

/// Reusable scratch for TbatsModel::RunFilter: the seasonal state vectors
/// and the per-harmonic angular frequencies with their cos/sin rotation
/// coefficients (constant throughout one filter pass, so they are computed
/// once per call instead of once per tick).
struct TbatsWorkspace {
  std::vector<double> s;
  std::vector<double> s_star;
  std::vector<double> lambda;
  std::vector<double> cos_lambda;
  std::vector<double> sin_lambda;
};

/// A fitted TBATS-style model.
class TbatsModel {
 public:
  /// Fits to `data` (missing entries interpolated). Chooses the seasonal
  /// period from ACF candidates when config.period == 0. Requires at least
  /// 3 full seasonal cycles of data.
  static StatusOr<TbatsModel> Fit(const Series& data,
                                  const TbatsConfig& config = TbatsConfig());

  /// One-step-ahead in-sample predictions.
  Series PredictInSample(const Series& data) const;

  /// Multi-step forecast from the end of `history`.
  Series Forecast(const Series& history, size_t horizon) const;

  size_t period() const { return period_; }
  size_t harmonics() const { return harmonics_; }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double phi() const { return phi_; }

 private:
  TbatsModel() = default;

  /// Runs the innovation filter over `data`. If `fitted` is non-null it
  /// receives the one-step-ahead predictions; returns the sum of squared
  /// innovations. Final state is written to the *_out pointers when
  /// non-null (used to seed forecasting).
  double RunFilter(const Series& data, Series* fitted, double* level_out,
                   double* trend_out, std::vector<double>* seasonal_out,
                   std::vector<double>* seasonal_star_out) const;

  /// Workspace form: identical arithmetic, state kept in `workspace` so the
  /// smoothing-parameter search reuses one allocation across evaluations.
  double RunFilter(const Series& data, Series* fitted, double* level_out,
                   double* trend_out, std::vector<double>* seasonal_out,
                   std::vector<double>* seasonal_star_out,
                   TbatsWorkspace* workspace) const;

  size_t period_ = 0;
  size_t harmonics_ = 0;
  double alpha_ = 0.1;   ///< level smoothing
  double beta_ = 0.01;   ///< trend smoothing
  double phi_ = 0.98;    ///< trend damping
  double gamma1_ = 0.01; ///< seasonal smoothing (cos states)
  double gamma2_ = 0.01; ///< seasonal smoothing (sin states)
  double init_level_ = 0.0;
  double init_trend_ = 0.0;
};

}  // namespace dspot

#endif  // DSPOT_BASELINES_TBATS_H_
