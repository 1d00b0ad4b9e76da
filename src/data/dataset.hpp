// Supervised dataset construction for load forecasting: sliding-window
// features over a device trace, with optional calendar features, 80/20
// train/test split (the paper's setting), and per-device normalization.
#pragma once

#include <algorithm>
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

// --- Per-sample arithmetic ------------------------------------------------
// make_supervised / make_sequences are loops over these, and batch gathers
// that read samples straight from a trace (forecast/fused.hpp) call the same
// functions, so a gathered row is bitwise the materialized one.

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

/// One sequence step for trace minute `minute`: [scaled watt, sin h, cos h]
/// into out[0, step_features(cfg)).
void encode_step(const DeviceTrace& trace, const WindowConfig& cfg,
                 double scale, std::size_t minute, double* out) noexcept;
/// The flat feature row for target minute `t` into out[0, flat_features).
void encode_flat_row(const DeviceTrace& trace, const WindowConfig& cfg,
                     double scale, std::size_t t, double* out) noexcept;

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
