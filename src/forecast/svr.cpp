#include "forecast/svr.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pfdrl::forecast {

SvrForecaster::SvrForecaster(const data::WindowConfig& window, double epsilon,
                             double l2_lambda)
    : Forecaster(window), epsilon_(epsilon), l2_lambda_(l2_lambda) {
  weights_.assign(feature_count() + 1, 0.0);
}

std::size_t SvrForecaster::feature_count() const noexcept {
  return window_.window + (window_.calendar_features ? 2 : 0);
}

double SvrForecaster::raw_predict(const double* x) const noexcept {
  const std::size_t f = feature_count();
  double pred = weights_[f];
  for (std::size_t i = 0; i < f; ++i) pred += weights_[i] * x[i];
  return pred;
}

double SvrForecaster::train(const data::DeviceTrace& trace, std::size_t begin,
                            std::size_t end, const TrainConfig& cfg,
                            util::Rng& rng) {
  const TrainConfig tcfg = resolve_train_config(Method::kSvr, cfg);
  data::WindowConfig wc = window_;
  wc.stride = tcfg.stride;
  const auto set = data::make_supervised(trace, wc, begin, end);
  if (set.size() == 0) return 0.0;
  const std::size_t f = feature_count();

  // SVR gains little from tiny NN learning rates; use a larger effective
  // step with 1/sqrt(t) decay (standard for subgradient methods).
  const double lr0 = tcfg.learning_rate * 20.0;

  std::vector<std::size_t> order(set.size());
  std::iota(order.begin(), order.end(), 0);

  double last_epoch_loss = 0.0;
  std::size_t t = 0;
  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    rng.shuffle(order);
    double loss = 0.0;
    for (std::size_t idx : order) {
      ++t;
      const double lr = lr0 / std::sqrt(static_cast<double>(t));
      const double* xr = set.x.row(idx).data();
      const double err = raw_predict(xr) - set.y(idx, 0);
      // L2 shrinkage on weights (not intercept).
      for (std::size_t i = 0; i < f; ++i) {
        weights_[i] -= lr * l2_lambda_ * weights_[i];
      }
      if (std::abs(err) > epsilon_) {
        const double g = err > 0.0 ? 1.0 : -1.0;
        for (std::size_t i = 0; i < f; ++i) weights_[i] -= lr * g * xr[i];
        weights_[f] -= lr * g;
        loss += std::abs(err) - epsilon_;
      }
    }
    last_epoch_loss = loss / static_cast<double>(set.size());
  }
  return last_epoch_loss;
}

std::vector<double> SvrForecaster::predict_series(
    const data::DeviceTrace& trace, std::size_t begin, std::size_t end) const {
  data::WindowConfig wc = window_;
  wc.stride = 1;
  const auto set = data::make_supervised(trace, wc, begin, end);
  const data::WattCodec codec(set.scale, wc.log_scale);
  std::vector<double> out;
  out.reserve(set.size());
  for (std::size_t r = 0; r < set.size(); ++r) {
    out.push_back(codec.decode(raw_predict(set.x.row(r).data())));
  }
  return out;
}

void SvrForecaster::set_parameters(std::span<const double> values) {
  if (values.size() != weights_.size()) {
    throw std::invalid_argument("SvrForecaster::set_parameters: size mismatch");
  }
  weights_.assign(values.begin(), values.end());
}

}  // namespace pfdrl::forecast
