// Back-propagation neural-network forecaster (the paper's "BP"
// baseline, after Wang 2015): a feed-forward MLP on the flat window
// features, trained with mini-batch Adam.
#pragma once

#include "forecast/forecaster.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace pfdrl::forecast {

class BpForecaster final : public Forecaster {
 public:
  BpForecaster(const data::WindowConfig& window, std::uint64_t seed,
               std::vector<std::size_t> hidden = {64, 32});

  [[nodiscard]] Method method() const noexcept override { return Method::kBp; }
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

  BpForecaster(const BpForecaster&) = default;

  nn::Mlp net_;
  nn::Adam opt_;
};

}  // namespace pfdrl::forecast
