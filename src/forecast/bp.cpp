#include "forecast/bp.hpp"

#include "forecast/adam_codec.hpp"
#include "forecast/fused.hpp"

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
  return train_group_of_one(*this, trace, begin, end, cfg, rng);
}

std::vector<double> BpForecaster::predict_series(const data::DeviceTrace& trace,
                                                 std::size_t begin,
                                                 std::size_t end) const {
  data::WindowConfig wc = window_;
  wc.stride = 1;
  const auto set = data::make_supervised(trace, wc, begin, end);
  const nn::Matrix pred = net_.predict(set.x);
  const data::WattCodec codec(set.scale, wc.log_scale);
  std::vector<double> out;
  out.reserve(set.size());
  for (std::size_t r = 0; r < set.size(); ++r) {
    out.push_back(codec.decode(pred(r, 0)));
  }
  return out;
}

void BpForecaster::set_parameters(std::span<const double> values) {
  net_.set_parameters(values);
  // Adam moments are intentionally kept: federated averaging moves the
  // weights only slightly (peers share init and are re-averaged every
  // round), and resetting the moments at every broadcast acted as a
  // repeated warm restart that measurably hurt DFL accuracy.
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
