// LSTM load forecaster (the paper's best method, after Sülo & Brown
// 2019): a single-layer LSTM over the window sequence with a linear
// head, trained by BPTT with Adam.
#pragma once

#include "forecast/forecaster.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"

namespace pfdrl::forecast {

class LstmForecaster final : public Forecaster {
 public:
  LstmForecaster(const data::WindowConfig& window, std::uint64_t seed,
                 std::size_t hidden = 32);

  [[nodiscard]] Method method() const noexcept override {
    return Method::kLstm;
  }
  double train(const data::DeviceTrace& trace, std::size_t begin,
               std::size_t end, const TrainConfig& cfg,
               util::Rng& rng) override;
  [[nodiscard]] std::vector<double> predict_series(
      const data::DeviceTrace& trace, std::size_t begin,
      std::size_t end) const override;
  [[nodiscard]] std::span<const double> parameters() const override {
    return net_.parameters();
  }
  void set_parameters(std::span<const double> values) override;
  [[nodiscard]] std::vector<double> train_state() const override;
  void set_train_state(std::span<const double> state) override;
  [[nodiscard]] std::unique_ptr<Forecaster> clone() const override;

 private:
  // train() runs through FusedForecastTrainer (forecast/fused.hpp) as a
  // group of one; the trainer needs net_ and opt_ only.
  friend struct FusedAccess;

  LstmForecaster(const LstmForecaster&) = default;

  nn::LstmRegressor net_;
  nn::Adam opt_;
};

}  // namespace pfdrl::forecast
