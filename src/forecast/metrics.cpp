#include "forecast/metrics.hpp"

#include "util/stats.hpp"

namespace pfdrl::forecast {

namespace {
/// Predictions from predict_series are aligned with target minutes
/// [first_target, end) where first_target = max(begin, window).
std::size_t first_target_minute(const Forecaster& model, std::size_t begin) {
  return data::first_feasible_target(model.window_config(), begin);
}
}  // namespace

EvalResult score(std::span<const double> preds, const data::DeviceTrace& trace,
                 std::size_t t0) {
  util::RunningStats stats;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const std::size_t t = t0 + i;
    if (t >= trace.minutes()) break;
    stats.add(data::prediction_accuracy(preds[i], trace.watts[t]));
  }
  return {stats.mean(), stats.count()};
}

EvalResult evaluate(const Forecaster& model, const data::DeviceTrace& trace,
                    std::size_t begin, std::size_t end) {
  return score(model.predict_series(trace, begin, end), trace,
               first_target_minute(model, begin));
}

std::vector<double> accuracy_samples(const Forecaster& model,
                                     const data::DeviceTrace& trace,
                                     std::size_t begin, std::size_t end) {
  const auto preds = model.predict_series(trace, begin, end);
  const std::size_t t0 = first_target_minute(model, begin);
  std::vector<double> out;
  out.reserve(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const std::size_t t = t0 + i;
    if (t >= trace.minutes()) break;
    out.push_back(data::prediction_accuracy(preds[i], trace.watts[t]));
  }
  return out;
}

std::array<double, 24> accuracy_by_hour(const Forecaster& model,
                                        const data::DeviceTrace& trace,
                                        std::size_t begin, std::size_t end) {
  const auto preds = model.predict_series(trace, begin, end);
  const std::size_t t0 = first_target_minute(model, begin);
  std::array<util::RunningStats, 24> buckets;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const std::size_t t = t0 + i;
    if (t >= trace.minutes()) break;
    buckets[data::hour_of_day(t)].add(
        data::prediction_accuracy(preds[i], trace.watts[t]));
  }
  std::array<double, 24> out{};
  for (std::size_t h = 0; h < 24; ++h) out[h] = buckets[h].mean();
  return out;
}

}  // namespace pfdrl::forecast
