// Supervised dataset construction for load forecasting: sliding-window
// features over a device trace, with optional calendar features, 80/20
// train/test split (the paper's setting), and per-device normalization.
//
// One encoder: every forecast feature row — make_supervised's,
// make_sequences' and the group trainer's per-member batch rows
// (forecast/fused.hpp) — is copied out of an EncodedSpan, which encodes
// each trace minute its rows can touch exactly once (WattCodec), plus
// the hour-of-day table's pair for the row's minute. A sliding window
// reads each minute `window` times per pass; none of those reads
// re-encodes it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "data/trace.hpp"
#include "nn/matrix.hpp"

namespace pfdrl::data {

struct WindowConfig {
  /// Number of past minutes fed as features.
  std::size_t window = 16;
  /// Append sin/cos of hour-of-day (helps all models; essential for the
  /// schedule-dependent patterns).
  bool calendar_features = true;
  /// Keep every `stride`-th window (training-time subsampling; 1 = all).
  std::size_t stride = 1;
  /// Prediction horizon in minutes: the features end `horizon` minutes
  /// before the target (paper §3.2.1: each DFL prediction covers the
  /// *next hour*, so forecasts are genuinely multi-step — persistence
  /// alone cannot win).
  std::size_t horizon = 15;
  /// Encode watts as log1p(w)/log1p(scale) instead of w/scale. Device
  /// loads span ~3 orders of magnitude between standby and on; training
  /// on the compressed scale weights the low-power regimes the paper's
  /// *relative* accuracy metric cares about, instead of letting the
  /// on-mode absolute errors dominate the loss.
  bool log_scale = true;
};

/// Per-device normalization: watts are divided by `scale` before entering
/// a model, predictions multiplied back. Using a spec-derived scale (not
/// data max) keeps the transform identical across federated clients.
double normalization_scale(const DeviceSpec& spec) noexcept;

/// The watt encoding under one scale: w/scale, or log1p(w)/log1p(scale)
/// with log1p(scale) evaluated once. The free functions below construct
/// one per call, so a codec held across a series gives the same bits.
class WattCodec {
 public:
  WattCodec(double scale, bool log_scale) noexcept
      : log_scale_(log_scale),
        divisor_(log_scale ? std::log1p(scale) : scale) {}

  /// Model units of a reading (negative watts clamp to 0).
  [[nodiscard]] double encode(double watts) const noexcept {
    watts = std::max(0.0, watts);
    return (log_scale_ ? std::log1p(watts) : watts) / divisor_;
  }
  /// Watts of a model output (clamped at 0).
  [[nodiscard]] double decode(double value) const noexcept {
    const double w = value * divisor_;
    return std::max(0.0, log_scale_ ? std::expm1(w) : w);
  }

 private:
  bool log_scale_;
  double divisor_;  // log1p(scale) or scale
};

/// Encode a power reading into model units under the given scale.
double encode_watts(double watts, double scale, bool log_scale) noexcept;
/// Inverse of encode_watts (clamped at 0).
double decode_watts(double value, double scale, bool log_scale) noexcept;

/// Minutes of history a prediction needs before its target: the window
/// plus the gap to the horizon. The first feasible target minute of a
/// range starting at `begin` is max(begin, history_needed(cfg)).
constexpr std::size_t history_needed(const WindowConfig& cfg) noexcept {
  return cfg.window + (cfg.horizon > 0 ? cfg.horizon - 1 : 0);
}
constexpr std::size_t first_feasible_target(const WindowConfig& cfg,
                                            std::size_t begin) noexcept {
  return std::max(begin, history_needed(cfg));
}

// --- Sample geometry ------------------------------------------------------

/// Samples a set over trace minutes [begin, end) holds (end clamped to the
/// trace); sample i targets minute first_feasible_target(cfg, begin) +
/// i * max(1, cfg.stride).
std::size_t sample_count(const DeviceTrace& trace, const WindowConfig& cfg,
                         std::size_t begin_minute, std::size_t end_minute);

/// First trace minute of the feature window for target minute `t`: the
/// window ends `horizon` minutes before the target.
constexpr std::size_t window_start(const WindowConfig& cfg,
                                   std::size_t t) noexcept {
  return t - (cfg.horizon > 0 ? cfg.horizon : 1) - cfg.window + 1;
}

/// Features per sequence step (1 + 2 calendar) and per flat row (window +
/// 2 calendar).
constexpr std::size_t step_features(const WindowConfig& cfg) noexcept {
  return 1 + (cfg.calendar_features ? 2 : 0);
}
constexpr std::size_t flat_features(const WindowConfig& cfg) noexcept {
  return cfg.window + (cfg.calendar_features ? 2 : 0);
}

// --- Calendar features ----------------------------------------------------

/// sin/cos of the hour-of-day angle 2*pi*(minute mod 1440)/1440.
struct HourFeatures {
  double sin_h;
  double cos_h;
};

/// The hour-of-day pair of trace minute `minute`, read from a 1,440-entry
/// table filled once at first use. The angle depends on minute mod 1440
/// only, so an entry is bitwise the formula evaluated at any minute of
/// that class.
const HourFeatures& hour_features(std::size_t minute) noexcept;

// --- The span encoder -----------------------------------------------------

/// The trace minutes a set of `n` samples can read, each encoded once:
/// for targets first + i * max(1, cfg.stride), i < n, that is minutes
/// [window_start(cfg, first), first + (n - 1) * stride] (empty when
/// n == 0), under the trace's normalization_scale. Rows are then copies:
/// a flat row is `window` consecutive span values plus the table pair of
/// its target, a sequence step one span value plus the table pair of its
/// minute, and a target the span value at its minute — bitwise what
/// encode_watts and the hour-of-day formula give for that minute.
///
/// Encoding costs one WattCodec::encode per span minute, about
/// n * stride, against n * (window + 1) for per-row encoding — never
/// more while stride <= window + 1.
class EncodedSpan {
 public:
  EncodedSpan() = default;
  EncodedSpan(const DeviceTrace& trace, const WindowConfig& cfg,
              std::size_t first_target, std::size_t n);

  [[nodiscard]] double scale() const noexcept { return scale_; }

  /// The encoded reading of span minute `minute` (a sample's target).
  [[nodiscard]] double at(std::size_t minute) const noexcept {
    return values_[minute - lo_];
  }
  /// The flat feature row of target `t` into out[0, flat_features(cfg)):
  /// [w(t-horizon-window+1) .. w(t-horizon) | sin h(t) | cos h(t)].
  void flat_row(std::size_t t, double* out) const noexcept {
    const std::size_t w0 = window_start(cfg_, t);
    std::copy_n(values_.data() + (w0 - lo_), cfg_.window, out);
    if (cfg_.calendar_features) {
      const HourFeatures& h = hours_[t % kMinutesPerDay];
      out[cfg_.window] = h.sin_h;
      out[cfg_.window + 1] = h.cos_h;
    }
  }
  /// The sequence step of span minute `minute` into
  /// out[0, step_features(cfg)): [w(minute) | sin h | cos h].
  void step(std::size_t minute, double* out) const noexcept {
    out[0] = values_[minute - lo_];
    if (cfg_.calendar_features) {
      const HourFeatures& h = hours_[minute % kMinutesPerDay];
      out[1] = h.sin_h;
      out[2] = h.cos_h;
    }
  }

 private:
  WindowConfig cfg_;
  double scale_ = 1.0;
  std::size_t lo_ = 0;  // first encoded minute
  std::vector<double> values_;
  const HourFeatures* hours_ = nullptr;  // the hour-of-day table
};

/// Flat supervised set for the MLP/LR/SVR-style forecasters.
/// X row = [w_{t-W+1..t} scaled | sin h | cos h], y = scaled w_{t+1}.
struct SupervisedSet {
  nn::Matrix x;  // samples x features
  nn::Matrix y;  // samples x 1
  std::vector<std::size_t> target_minute;  // trace index of each target
  double scale = 1.0;

  [[nodiscard]] std::size_t size() const noexcept { return x.rows(); }
  [[nodiscard]] std::size_t features() const noexcept { return x.cols(); }
};

SupervisedSet make_supervised(const DeviceTrace& trace, const WindowConfig& cfg,
                              std::size_t begin_minute, std::size_t end_minute);

/// Sequence form for the LSTM: xs[t] is (samples x features_per_step)
/// where each step carries [scaled watt, sin h, cos h] for that minute.
struct SequenceSet {
  std::vector<nn::Matrix> xs;  // window entries, each samples x step_features
  nn::Matrix y;                // samples x 1
  std::vector<std::size_t> target_minute;
  double scale = 1.0;

  [[nodiscard]] std::size_t size() const noexcept { return y.rows(); }
  [[nodiscard]] std::size_t step_features() const noexcept {
    return xs.empty() ? 0 : xs.front().cols();
  }
};

SequenceSet make_sequences(const DeviceTrace& trace, const WindowConfig& cfg,
                           std::size_t begin_minute, std::size_t end_minute);

/// The paper's 80/20 split point for a trace of `minutes`.
struct SplitPoint {
  std::size_t train_end;  // [0, train_end) is train, [train_end, n) test
};
SplitPoint train_test_split(std::size_t minutes, double train_fraction = 0.8);

/// The paper's prediction-accuracy metric: Ac = 1 - |V - RV| / RV,
/// clamped to [0, 1]. Minutes where the real value is below `floor_watts`
/// are skipped (the relative metric is undefined at 0 — i.e. device off).
double prediction_accuracy(double predicted_watts, double real_watts,
                           double floor_watts = 0.5) noexcept;

}  // namespace pfdrl::data
