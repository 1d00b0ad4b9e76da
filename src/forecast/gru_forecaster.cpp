#include "forecast/gru_forecaster.hpp"

#include <numeric>

#include "forecast/adam_codec.hpp"

namespace pfdrl::forecast {

GruForecaster::GruForecaster(const data::WindowConfig& window,
                             std::uint64_t seed, std::size_t hidden)
    : Forecaster(window),
      net_([&] {
        util::Rng rng(seed);
        return nn::GruRegressor(window.calendar_features ? 3 : 1, hidden, 1,
                                rng);
      }()),
      opt_(1e-3) {}

double GruForecaster::train(const data::DeviceTrace& trace, std::size_t begin,
                            std::size_t end, const TrainConfig& cfg,
                            util::Rng& rng) {
  const TrainConfig tcfg = resolve_train_config(Method::kGru, cfg);
  data::WindowConfig wc = window_;
  wc.stride = tcfg.stride;
  const auto set = data::make_sequences(trace, wc, begin, end);
  if (set.size() == 0) return 0.0;
  opt_.set_learning_rate(tcfg.learning_rate);

  order_.resize(set.size());
  std::iota(order_.begin(), order_.end(), 0);
  const std::size_t steps = set.xs.size();
  const std::size_t feat = set.step_features();
  // resize (not clear+resize): surviving step matrices keep their heap
  // buffers, and the per-batch reshape below reuses them in place.
  xb_.resize(steps);

  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    rng.shuffle(order_);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t ofs = 0; ofs < order_.size(); ofs += tcfg.batch_size) {
      const std::size_t bs = std::min(tcfg.batch_size, order_.size() - ofs);
      for (std::size_t t = 0; t < steps; ++t) xb_[t].reshape(bs, feat);
      yb_.reshape(bs, 1);
      for (std::size_t i = 0; i < bs; ++i) {
        const std::size_t src = order_[ofs + i];
        for (std::size_t t = 0; t < steps; ++t) {
          auto row = set.xs[t].row(src);
          std::copy(row.begin(), row.end(), xb_[t].row(i).begin());
        }
        yb_(i, 0) = set.y(src, 0);
      }
      loss_sum += net_.train_batch(xb_, yb_, nn::LossKind::kMae, opt_);
      ++batches;
    }
    last_epoch_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

std::vector<double> GruForecaster::predict_series(
    const data::DeviceTrace& trace, std::size_t begin, std::size_t end) const {
  data::WindowConfig wc = window_;
  wc.stride = 1;
  const auto set = data::make_sequences(trace, wc, begin, end);
  if (set.size() == 0) return {};
  const nn::Matrix pred = net_.predict(set.xs);
  std::vector<double> out;
  out.reserve(set.size());
  for (std::size_t r = 0; r < set.size(); ++r) {
    out.push_back(data::decode_watts(pred(r, 0), set.scale, wc.log_scale));
  }
  return out;
}

void GruForecaster::set_parameters(std::span<const double> values) {
  net_.set_parameters(values);
  // Adam moments kept across federated averaging (see lstm_forecaster).
}

std::vector<double> GruForecaster::train_state() const {
  return detail::encode_adam(opt_);
}

void GruForecaster::set_train_state(std::span<const double> state) {
  detail::decode_adam(state, opt_);
}

std::unique_ptr<Forecaster> GruForecaster::clone() const {
  return std::unique_ptr<Forecaster>(new GruForecaster(*this));
}

}  // namespace pfdrl::forecast
