#include "ems/env.hpp"

#include <cassert>
#include <stdexcept>

namespace pfdrl::ems {

EmsEnvironment::EmsEnvironment(const data::DeviceTrace& trace,
                               std::vector<double> forecast_watts,
                               std::size_t begin, std::size_t meter_interval)
    : EmsEnvironment(trace,
                     std::make_shared<const std::vector<double>>(
                         std::move(forecast_watts)),
                     begin, meter_interval) {}

EmsEnvironment::EmsEnvironment(
    const data::DeviceTrace& trace,
    std::shared_ptr<const std::vector<double>> forecast_watts,
    std::size_t begin, std::size_t meter_interval)
    : trace_(&trace),
      forecast_(std::move(forecast_watts)),
      begin_(begin),
      meter_interval_(std::max<std::size_t>(1, meter_interval)),
      bands_(bands_for(trace.spec)),
      codec_(data::normalization_scale(trace.spec), /*log_scale=*/true) {
  if (!forecast_) {
    throw std::invalid_argument("EmsEnvironment: null forecast series");
  }
  if (begin_ + forecast_->size() > trace.minutes()) {
    throw std::invalid_argument("EmsEnvironment: span exceeds trace");
  }
}

std::size_t EmsEnvironment::last_report_minute(
    std::size_t minute) const noexcept {
  if (minute == 0) return 0;
  // Reports land at minutes 0, R, 2R, ...; the newest strictly before
  // `minute` is available when acting at `minute`.
  return ((minute - 1) / meter_interval_) * meter_interval_;
}

std::vector<double> EmsEnvironment::state_at(std::size_t idx) const {
  std::vector<double> s(kStateDim, 0.0);
  state_into(idx, s);
  return s;
}

void EmsEnvironment::state_into(std::size_t idx, std::span<double> out) const {
  assert(idx < length());
  assert(out.size() == kStateDim);
  double* s = out.data();
  const std::size_t minute = begin_ + idx;
  // Log-compressed encoding: off/standby/on land on well-separated
  // levels (~0 / ~0.3 / ~0.9) instead of 0 / 0.01 / 0.7.
  s[0] = codec_.encode((*forecast_)[idx]);
  // Causal meter history: the two most recent *reported* readings.
  const std::size_t report = last_report_minute(minute);
  const std::size_t prev_report =
      report >= meter_interval_ ? report - meter_interval_ : 0;
  s[1] = codec_.encode(trace_->watts[report]);
  s[2] = codec_.encode(trace_->watts[prev_report]);
  const data::HourFeatures& hour = data::hour_features(minute);
  s[3] = hour.sin_h;
  s[4] = hour.cos_h;
}

data::DeviceMode EmsEnvironment::observed_mode(std::size_t idx) const {
  return classify_mode(real_watts(idx), bands_);
}

data::DeviceMode EmsEnvironment::predicted_mode(std::size_t idx) const {
  return classify_mode((*forecast_)[idx], bands_);
}

data::DeviceMode EmsEnvironment::true_mode(std::size_t idx) const {
  return trace_->modes[begin_ + idx];
}

double EmsEnvironment::reward_at(std::size_t idx, int action) const {
  return reward(observed_mode(idx), action_to_mode(action));
}

double EmsEnvironment::real_watts(std::size_t idx) const noexcept {
  return trace_->watts[begin_ + idx];
}

double EmsEnvironment::forecast_watts(std::size_t idx) const noexcept {
  return (*forecast_)[idx];
}

}  // namespace pfdrl::ems
