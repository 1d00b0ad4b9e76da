// GRU load forecaster — extension beyond the paper's four methods: the
// lighter recurrent cell at the same interface, compared against the
// LSTM in bench/ablation_design.
#pragma once

#include "forecast/forecaster.hpp"
#include "nn/gru.hpp"
#include "nn/optimizer.hpp"

namespace pfdrl::forecast {

class GruForecaster final : public Forecaster {
 public:
  GruForecaster(const data::WindowConfig& window, std::uint64_t seed,
                std::size_t hidden = 32);

  [[nodiscard]] Method method() const noexcept override {
    return Method::kGru;
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

  GruForecaster(const GruForecaster&) = default;

  nn::GruRegressor net_;
  nn::Adam opt_;
};

}  // namespace pfdrl::forecast
