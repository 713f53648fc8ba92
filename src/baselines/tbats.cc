#include "baselines/tbats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "optimize/nelder_mead.h"
#include "timeseries/stats.h"

namespace dspot {

namespace {
constexpr double kTwoPi = 6.283185307179586;
/// Nelder-Mead evaluation budget for the smoothing-parameter search.
constexpr int kMaxEvaluations = 4000;
}  // namespace

double TbatsModel::RunFilter(const Series& data, Series* fitted,
                             double* level_out, double* trend_out,
                             std::vector<double>* seasonal_out,
                             std::vector<double>* seasonal_star_out) const {
  TbatsWorkspace workspace;
  return RunFilter(data, fitted, level_out, trend_out, seasonal_out,
                   seasonal_star_out, &workspace);
}

double TbatsModel::RunFilter(const Series& data, Series* fitted,
                             double* level_out, double* trend_out,
                             std::vector<double>* seasonal_out,
                             std::vector<double>* seasonal_star_out,
                             TbatsWorkspace* workspace) const {
  const size_t n = data.size();
  const size_t k = harmonics_;
  double level = init_level_;
  double trend = init_trend_;
  std::vector<double>& s = workspace->s;
  std::vector<double>& s_star = workspace->s_star;
  s.assign(k, 0.0);
  s_star.assign(k, 0.0);

  if (fitted != nullptr && fitted->size() != n) {
    *fitted = Series(n);
  }

  // The rotation coefficients are constant over the pass, so cos/sin run
  // once per harmonic here instead of once per (tick, harmonic).
  std::vector<double>& lambda = workspace->lambda;
  std::vector<double>& cos_lambda = workspace->cos_lambda;
  std::vector<double>& sin_lambda = workspace->sin_lambda;
  lambda.resize(k);
  cos_lambda.resize(k);
  sin_lambda.resize(k);
  for (size_t j = 0; j < k; ++j) {
    lambda[j] = kTwoPi * static_cast<double>(j + 1) /
                static_cast<double>(std::max<size_t>(period_, 2));
    cos_lambda[j] = std::cos(lambda[j]);
    sin_lambda[j] = std::sin(lambda[j]);
  }

  double sse = 0.0;
  for (size_t t = 0; t < n; ++t) {
    double seasonal = 0.0;
    for (size_t j = 0; j < k; ++j) {
      seasonal += s[j];
    }
    const double pred = level + phi_ * trend + seasonal;
    if (fitted != nullptr) {
      (*fitted)[t] = pred;
    }
    const double innovation = data[t] - pred;
    sse += innovation * innovation;

    // State update.
    level = level + phi_ * trend + alpha_ * innovation;
    trend = phi_ * trend + beta_ * innovation;
    for (size_t j = 0; j < k; ++j) {
      const double c = cos_lambda[j];
      const double d = sin_lambda[j];
      const double sj = s[j];
      const double sj_star = s_star[j];
      s[j] = sj * c + sj_star * d + gamma1_ * innovation;
      s_star[j] = -sj * d + sj_star * c + gamma2_ * innovation;
    }
  }
  if (level_out != nullptr) *level_out = level;
  if (trend_out != nullptr) *trend_out = trend;
  if (seasonal_out != nullptr) *seasonal_out = s;
  if (seasonal_star_out != nullptr) *seasonal_star_out = s_star;
  return sse;
}

StatusOr<TbatsModel> TbatsModel::Fit(const Series& data,
                                     const TbatsConfig& config) {
  if (data.observed_count() < 12) {
    return Status::InvalidArgument("TbatsModel::Fit: too few observations");
  }
  const Series filled = data.Interpolated();
  const size_t n = filled.size();

  size_t period = config.period;
  if (period == 0) {
    const std::vector<size_t> candidates = CandidatePeriods(filled, n / 3);
    period = candidates.empty() ? std::max<size_t>(n / 4, 4) : candidates[0];
  }
  if (n < 3 * period) {
    return Status::InvalidArgument(
        "TbatsModel::Fit: need at least 3 seasonal cycles");
  }

  TbatsModel model;
  model.period_ = period;
  model.harmonics_ = std::min(config.harmonics, period / 2);
  if (model.harmonics_ == 0) model.harmonics_ = 1;
  model.init_level_ = filled.MeanValue();
  model.init_trend_ = 0.0;

  // Optimize the smoothing parameters on the one-step-ahead SSE. One
  // workspace serves every evaluation of the search.
  TbatsWorkspace workspace;
  auto objective = [&](const std::vector<double>& p) -> double {
    TbatsModel candidate = model;
    candidate.alpha_ = p[0];
    candidate.beta_ = p[1];
    candidate.phi_ = p[2];
    candidate.gamma1_ = p[3];
    candidate.gamma2_ = p[4];
    const double sse = candidate.RunFilter(filled, nullptr, nullptr, nullptr,
                                           nullptr, nullptr, &workspace);
    return std::isfinite(sse) ? sse
                              : std::numeric_limits<double>::infinity();
  };
  Bounds bounds;
  bounds.lower = {1e-4, 0.0, 0.6, 0.0, 0.0};
  bounds.upper = {1.0, 0.5, 1.0, 0.5, 0.5};
  NelderMeadOptions nm_options;
  nm_options.max_evaluations = kMaxEvaluations;
  const std::vector<std::vector<double>> starts = {
      {0.2, 0.01, 0.98, 0.05, 0.05},
      {0.6, 0.10, 0.90, 0.20, 0.20},
  };
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> best_params = starts[0];
  for (const auto& init : starts) {
    auto result = NelderMead(objective, init, bounds, nm_options);
    if (result.ok() && result->final_value < best) {
      best = result->final_value;
      best_params = result->params;
    }
  }
  model.alpha_ = best_params[0];
  model.beta_ = best_params[1];
  model.phi_ = best_params[2];
  model.gamma1_ = best_params[3];
  model.gamma2_ = best_params[4];
  return model;
}

Series TbatsModel::PredictInSample(const Series& data) const {
  const Series filled = data.Interpolated();
  Series fitted(filled.size());
  RunFilter(filled, &fitted, nullptr, nullptr, nullptr, nullptr);
  return fitted;
}

Series TbatsModel::Forecast(const Series& history, size_t horizon) const {
  const Series filled = history.Interpolated();
  double level = 0.0;
  double trend = 0.0;
  std::vector<double> s;
  std::vector<double> s_star;
  RunFilter(filled, nullptr, &level, &trend, &s, &s_star);

  std::vector<double> lambda(harmonics_);
  for (size_t j = 0; j < harmonics_; ++j) {
    lambda[j] = kTwoPi * static_cast<double>(j + 1) /
                static_cast<double>(std::max<size_t>(period_, 2));
  }

  Series out(horizon);
  for (size_t h = 0; h < horizon; ++h) {
    double seasonal = 0.0;
    for (size_t j = 0; j < harmonics_; ++j) {
      seasonal += s[j];
    }
    out[h] = level + phi_ * trend + seasonal;
    // Deterministic (innovation-free) state propagation.
    level = level + phi_ * trend;
    trend = phi_ * trend;
    for (size_t j = 0; j < harmonics_; ++j) {
      const double c = std::cos(lambda[j]);
      const double d = std::sin(lambda[j]);
      const double sj = s[j];
      const double sj_star = s_star[j];
      s[j] = sj * c + sj_star * d;
      s_star[j] = -sj * d + sj_star * c;
    }
  }
  return out;
}

}  // namespace dspot
