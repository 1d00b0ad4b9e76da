#include "data/dataset.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numbers>

namespace pfdrl::data {

double normalization_scale(const DeviceSpec& spec) noexcept {
  // Headroom above nominal on-power so noisy peaks stay near [0, 1].
  return std::max(1.0, spec.on_watts * 1.5);
}

double encode_watts(double watts, double scale, bool log_scale) noexcept {
  return WattCodec(scale, log_scale).encode(watts);
}

double decode_watts(double value, double scale, bool log_scale) noexcept {
  return WattCodec(scale, log_scale).decode(value);
}

namespace {

/// The hour-of-day formula; only the table's fill evaluates it.
HourFeatures calendar(std::size_t minute) noexcept {
  const double hour_frac =
      static_cast<double>(minute % kMinutesPerDay) /
      static_cast<double>(kMinutesPerDay);
  const double angle = 2.0 * std::numbers::pi * hour_frac;
  return {std::sin(angle), std::cos(angle)};
}

/// The hour-of-day pairs of minutes 0..1439, filled at first use.
const HourFeatures* hour_table() noexcept {
  static const std::array<HourFeatures, kMinutesPerDay> table = [] {
    std::array<HourFeatures, kMinutesPerDay> t{};
    for (std::size_t m = 0; m < kMinutesPerDay; ++m) t[m] = calendar(m);
    return t;
  }();
  return table.data();
}

}  // namespace

const HourFeatures& hour_features(std::size_t minute) noexcept {
  return hour_table()[minute % kMinutesPerDay];
}

std::size_t sample_count(const DeviceTrace& trace, const WindowConfig& cfg,
                         std::size_t begin_minute, std::size_t end_minute) {
  // Target minutes run over [first_feasible_target, end) in stride steps.
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  const std::size_t end = std::min(end_minute, trace.minutes());
  const std::size_t first = first_feasible_target(cfg, begin_minute);
  if (end <= first) return 0;
  return (end - first + stride - 1) / stride;
}

EncodedSpan::EncodedSpan(const DeviceTrace& trace, const WindowConfig& cfg,
                         std::size_t first_target, std::size_t n)
    : cfg_(cfg),
      scale_(normalization_scale(trace.spec)),
      hours_(hour_table()) {
  if (n == 0) return;
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  lo_ = window_start(cfg, first_target);
  const std::size_t hi = first_target + (n - 1) * stride;
  assert(hi < trace.minutes());
  const WattCodec codec(scale_, cfg.log_scale);
  values_.resize(hi - lo_ + 1);
  for (std::size_t m = lo_; m <= hi; ++m) {
    values_[m - lo_] = codec.encode(trace.watts[m]);
  }
}

SupervisedSet make_supervised(const DeviceTrace& trace,
                              const WindowConfig& cfg,
                              std::size_t begin_minute,
                              std::size_t end_minute) {
  assert(cfg.window >= 1);
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  const std::size_t n = sample_count(trace, cfg, begin_minute, end_minute);
  const std::size_t first = first_feasible_target(cfg, begin_minute);
  const EncodedSpan span(trace, cfg, first, n);

  SupervisedSet set;
  set.scale = span.scale();
  set.x = nn::Matrix(n, flat_features(cfg));
  set.y = nn::Matrix(n, 1);
  set.target_minute.reserve(n);
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t t = first + row * stride;
    span.flat_row(t, set.x.row(row).data());
    set.y(row, 0) = span.at(t);
    set.target_minute.push_back(t);
  }
  return set;
}

SequenceSet make_sequences(const DeviceTrace& trace, const WindowConfig& cfg,
                           std::size_t begin_minute, std::size_t end_minute) {
  assert(cfg.window >= 1);
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  const std::size_t n = sample_count(trace, cfg, begin_minute, end_minute);
  const std::size_t first = first_feasible_target(cfg, begin_minute);
  const EncodedSpan span(trace, cfg, first, n);

  SequenceSet set;
  set.scale = span.scale();
  set.xs.assign(cfg.window, nn::Matrix(n, step_features(cfg)));
  set.y = nn::Matrix(n, 1);
  set.target_minute.reserve(n);
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t t = first + row * stride;
    const std::size_t w0 = window_start(cfg, t);
    for (std::size_t k = 0; k < cfg.window; ++k) {
      span.step(w0 + k, set.xs[k].row(row).data());
    }
    set.y(row, 0) = span.at(t);
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
