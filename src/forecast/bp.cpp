#include "forecast/bp.hpp"

#include <numeric>

#include "forecast/adam_codec.hpp"

namespace pfdrl::forecast {

namespace {
std::vector<std::size_t> make_dims(const data::WindowConfig& window,
                                   const std::vector<std::size_t>& hidden) {
  std::vector<std::size_t> dims;
  dims.push_back(window.window + (window.calendar_features ? 2 : 0));
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(1);
  return dims;
}
}  // namespace

BpForecaster::BpForecaster(const data::WindowConfig& window,
                           std::uint64_t seed,
                           std::vector<std::size_t> hidden)
    : Forecaster(window),
      net_([&] {
        util::Rng rng(seed);
        return nn::Mlp(make_dims(window, hidden), nn::Activation::kRelu,
                       nn::Activation::kIdentity, nn::InitScheme::kHeNormal,
                       rng);
      }()),
      opt_(1e-3) {}

double BpForecaster::train(const data::DeviceTrace& trace, std::size_t begin,
                           std::size_t end, const TrainConfig& cfg,
                           util::Rng& rng) {
  const TrainConfig tcfg = resolve_train_config(Method::kBp, cfg);
  data::WindowConfig wc = window_;
  wc.stride = tcfg.stride;
  const auto set = data::make_supervised(trace, wc, begin, end);
  if (set.size() == 0) return 0.0;
  opt_.set_learning_rate(tcfg.learning_rate);

  order_.resize(set.size());
  std::iota(order_.begin(), order_.end(), 0);

  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    rng.shuffle(order_);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t ofs = 0; ofs < order_.size(); ofs += tcfg.batch_size) {
      const std::size_t bs = std::min(tcfg.batch_size, order_.size() - ofs);
      xb_.reshape(bs, set.x.cols());
      yb_.reshape(bs, 1);
      for (std::size_t i = 0; i < bs; ++i) {
        const std::size_t src = order_[ofs + i];
        auto row = set.x.row(src);
        std::copy(row.begin(), row.end(), xb_.row(i).begin());
        yb_(i, 0) = set.y(src, 0);
      }
      loss_sum += net_.train_batch(xb_, yb_, nn::LossKind::kMae, opt_);
      ++batches;
    }
    last_epoch_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

std::vector<double> BpForecaster::predict_series(const data::DeviceTrace& trace,
                                                 std::size_t begin,
                                                 std::size_t end) const {
  data::WindowConfig wc = window_;
  wc.stride = 1;
  const auto set = data::make_supervised(trace, wc, begin, end);
  const nn::Matrix pred = net_.predict(set.x);
  std::vector<double> out;
  out.reserve(set.size());
  for (std::size_t r = 0; r < set.size(); ++r) {
    out.push_back(data::decode_watts(pred(r, 0), set.scale, wc.log_scale));
  }
  return out;
}

void BpForecaster::set_parameters(std::span<const double> values) {
  net_.set_parameters(values);
  // Adam moments are intentionally kept: federated averaging moves the
  // weights only slightly (peers share init and are re-averaged every
  // round), and resetting the moments at every broadcast acted as a
  // repeated warm restart that measurably hurt DFL accuracy.  // moments refer to the replaced parameters
}

std::vector<double> BpForecaster::train_state() const {
  return detail::encode_adam(opt_);
}

void BpForecaster::set_train_state(std::span<const double> state) {
  detail::decode_adam(state, opt_);
}

std::unique_ptr<Forecaster> BpForecaster::clone() const {
  return std::unique_ptr<Forecaster>(new BpForecaster(*this));
}

}  // namespace pfdrl::forecast
