#include "forecast/lr.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pfdrl::forecast {

bool cholesky_solve(std::vector<double>& a, std::size_t n,
                    std::vector<double>& b) {
  assert(a.size() == n * n && b.size() == n);
  // In-place lower Cholesky: a = L L^T.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= a[j * n + k] * a[j * n + k];
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) v -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = v / ljj;
    }
  }
  // Forward solve L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= a[i * n + k] * b[k];
    b[i] = v / a[i * n + i];
  }
  // Backward solve L^T x = y.
  for (std::size_t i = n; i-- > 0;) {
    double v = b[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= a[k * n + i] * b[k];
    b[i] = v / a[i * n + i];
  }
  return true;
}

LrForecaster::LrForecaster(const data::WindowConfig& window,
                           double ridge_lambda)
    : Forecaster(window), ridge_lambda_(ridge_lambda) {
  weights_.assign(feature_count() + 1, 0.0);
}

std::size_t LrForecaster::feature_count() const noexcept {
  return window_.window + (window_.calendar_features ? 2 : 0);
}

double LrForecaster::train(const data::DeviceTrace& trace, std::size_t begin,
                           std::size_t end, const TrainConfig& cfg,
                           util::Rng& /*rng*/) {
  const TrainConfig tcfg = resolve_train_config(Method::kLr, cfg);
  data::WindowConfig wc = window_;
  wc.stride = tcfg.stride;
  const auto set = data::make_supervised(trace, wc, begin, end);
  if (set.size() == 0) return 0.0;

  const std::size_t f = feature_count();
  const std::size_t n = f + 1;  // + intercept
  std::vector<double> gram(n * n, 0.0);
  std::vector<double> rhs(n, 0.0);

  for (std::size_t r = 0; r < set.size(); ++r) {
    const double* xr = set.x.row(r).data();
    const double target = set.y(r, 0);
    // Augmented feature vector with a trailing 1 for the intercept.
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = i < f ? xr[i] : 1.0;
      rhs[i] += xi * target;
      for (std::size_t j = 0; j <= i; ++j) {
        const double xj = j < f ? xr[j] : 1.0;
        gram[i * n + j] += xi * xj;
      }
    }
  }
  // Symmetrize and regularize (no penalty on the intercept).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) gram[i * n + j] = gram[j * n + i];
  }
  const double scale = static_cast<double>(set.size());
  for (std::size_t i = 0; i < f; ++i) gram[i * n + i] += ridge_lambda_ * scale;
  gram[(n - 1) * n + (n - 1)] += 1e-9;  // numerical floor

  std::vector<double> solution = rhs;
  if (!cholesky_solve(gram, n, solution)) {
    throw std::runtime_error("LrForecaster: singular normal equations");
  }
  weights_ = std::move(solution);

  // Mean squared error on the training windows (scaled units).
  double mse = 0.0;
  for (std::size_t r = 0; r < set.size(); ++r) {
    const double* xr = set.x.row(r).data();
    double pred = weights_[f];
    for (std::size_t i = 0; i < f; ++i) pred += weights_[i] * xr[i];
    const double e = pred - set.y(r, 0);
    mse += e * e;
  }
  return mse / static_cast<double>(set.size());
}

std::vector<double> LrForecaster::predict_series(const data::DeviceTrace& trace,
                                                 std::size_t begin,
                                                 std::size_t end) const {
  data::WindowConfig wc = window_;
  wc.stride = 1;
  const auto set = data::make_supervised(trace, wc, begin, end);
  const std::size_t f = feature_count();
  const data::WattCodec codec(set.scale, wc.log_scale);
  std::vector<double> out;
  out.reserve(set.size());
  for (std::size_t r = 0; r < set.size(); ++r) {
    const double* xr = set.x.row(r).data();
    double pred = weights_[f];
    for (std::size_t i = 0; i < f; ++i) pred += weights_[i] * xr[i];
    out.push_back(codec.decode(pred));
  }
  return out;
}

void LrForecaster::set_parameters(std::span<const double> values) {
  if (values.size() != weights_.size()) {
    throw std::invalid_argument("LrForecaster::set_parameters: size mismatch");
  }
  weights_.assign(values.begin(), values.end());
}

}  // namespace pfdrl::forecast
