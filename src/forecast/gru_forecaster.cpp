#include "forecast/gru_forecaster.hpp"

#include "forecast/adam_codec.hpp"
#include "forecast/fused.hpp"

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
  return train_group_of_one(*this, trace, begin, end, cfg, rng);
}

std::vector<double> GruForecaster::predict_series(
    const data::DeviceTrace& trace, std::size_t begin, std::size_t end) const {
  data::WindowConfig wc = window_;
  wc.stride = 1;
  const auto set = data::make_sequences(trace, wc, begin, end);
  if (set.size() == 0) return {};
  const nn::Matrix pred = net_.predict(set.xs);
  const data::WattCodec codec(set.scale, wc.log_scale);
  std::vector<double> out;
  out.reserve(set.size());
  for (std::size_t r = 0; r < set.size(); ++r) {
    out.push_back(codec.decode(pred(r, 0)));
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
