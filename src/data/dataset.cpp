#include "data/dataset.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace pfdrl::data {

double normalization_scale(const DeviceSpec& spec) noexcept {
  // Headroom above nominal on-power so noisy peaks stay near [0, 1].
  return std::max(1.0, spec.on_watts * 1.5);
}

double encode_watts(double watts, double scale, bool log_scale) noexcept {
  watts = std::max(0.0, watts);
  if (!log_scale) return watts / scale;
  return std::log1p(watts) / std::log1p(scale);
}

double decode_watts(double value, double scale, bool log_scale) noexcept {
  if (!log_scale) return std::max(0.0, value * scale);
  return std::max(0.0, std::expm1(value * std::log1p(scale)));
}

namespace {

struct CalendarFeature {
  double sin_h;
  double cos_h;
};

CalendarFeature calendar(std::size_t minute) noexcept {
  const double hour_frac =
      static_cast<double>(minute % kMinutesPerDay) /
      static_cast<double>(kMinutesPerDay);
  const double angle = 2.0 * std::numbers::pi * hour_frac;
  return {std::sin(angle), std::cos(angle)};
}

}  // namespace

std::size_t sample_count(const DeviceTrace& trace, const WindowConfig& cfg,
                         std::size_t begin_minute, std::size_t end_minute) {
  // Target minutes run over [first_feasible_target, end) in stride steps.
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  const std::size_t end = std::min(end_minute, trace.minutes());
  const std::size_t first = first_feasible_target(cfg, begin_minute);
  if (end <= first) return 0;
  return (end - first + stride - 1) / stride;
}

void encode_step(const DeviceTrace& trace, const WindowConfig& cfg,
                 double scale, std::size_t minute, double* out) noexcept {
  out[0] = encode_watts(trace.watts[minute], scale, cfg.log_scale);
  if (cfg.calendar_features) {
    const auto cal = calendar(minute);
    out[1] = cal.sin_h;
    out[2] = cal.cos_h;
  }
}

void encode_flat_row(const DeviceTrace& trace, const WindowConfig& cfg,
                     double scale, std::size_t t, double* out) noexcept {
  const std::size_t w0 = window_start(cfg, t);
  for (std::size_t k = 0; k < cfg.window; ++k) {
    out[k] = encode_watts(trace.watts[w0 + k], scale, cfg.log_scale);
  }
  if (cfg.calendar_features) {
    const auto cal = calendar(t);
    out[cfg.window] = cal.sin_h;
    out[cfg.window + 1] = cal.cos_h;
  }
}

SupervisedSet make_supervised(const DeviceTrace& trace,
                              const WindowConfig& cfg,
                              std::size_t begin_minute,
                              std::size_t end_minute) {
  assert(cfg.window >= 1);
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  const std::size_t n = sample_count(trace, cfg, begin_minute, end_minute);

  SupervisedSet set;
  set.scale = normalization_scale(trace.spec);
  set.x = nn::Matrix(n, flat_features(cfg));
  set.y = nn::Matrix(n, 1);
  set.target_minute.reserve(n);
  const std::size_t first = first_feasible_target(cfg, begin_minute);
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t t = first + row * stride;
    encode_flat_row(trace, cfg, set.scale, t, set.x.row(row).data());
    set.y(row, 0) = encode_watts(trace.watts[t], set.scale, cfg.log_scale);
    set.target_minute.push_back(t);
  }
  return set;
}

SequenceSet make_sequences(const DeviceTrace& trace, const WindowConfig& cfg,
                           std::size_t begin_minute, std::size_t end_minute) {
  assert(cfg.window >= 1);
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  const std::size_t n = sample_count(trace, cfg, begin_minute, end_minute);

  SequenceSet set;
  set.scale = normalization_scale(trace.spec);
  set.xs.assign(cfg.window, nn::Matrix(n, step_features(cfg)));
  set.y = nn::Matrix(n, 1);
  set.target_minute.reserve(n);
  const std::size_t first = first_feasible_target(cfg, begin_minute);
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t t = first + row * stride;
    const std::size_t w0 = window_start(cfg, t);
    for (std::size_t k = 0; k < cfg.window; ++k) {
      encode_step(trace, cfg, set.scale, w0 + k, set.xs[k].row(row).data());
    }
    set.y(row, 0) = encode_watts(trace.watts[t], set.scale, cfg.log_scale);
    set.target_minute.push_back(t);
  }
  return set;
}

SplitPoint train_test_split(std::size_t minutes, double train_fraction) {
  train_fraction = std::clamp(train_fraction, 0.0, 1.0);
  return {static_cast<std::size_t>(
      static_cast<double>(minutes) * train_fraction)};
}

double prediction_accuracy(double predicted_watts, double real_watts,
                           double floor_watts) noexcept {
  if (real_watts < floor_watts) {
    // Relative error undefined near zero; treat a near-zero prediction as
    // fully correct and anything substantial as fully wrong.
    return predicted_watts < floor_watts ? 1.0 : 0.0;
  }
  const double rel = std::abs(predicted_watts - real_watts) / real_watts;
  return std::clamp(1.0 - rel, 0.0, 1.0);
}

}  // namespace pfdrl::data
