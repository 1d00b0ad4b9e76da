#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace pfdrl::data {
namespace {

DeviceTrace ramp_trace(std::size_t minutes) {
  // watts[m] = m, deterministic, modes all standby (irrelevant here).
  DeviceTrace trace;
  trace.spec.type = DeviceType::kTv;
  trace.spec.standby_watts = 5.0;
  trace.spec.on_watts = 100.0;
  trace.watts.resize(minutes);
  trace.modes.assign(minutes, DeviceMode::kStandby);
  for (std::size_t m = 0; m < minutes; ++m) {
    trace.watts[m] = static_cast<double>(m);
  }
  return trace;
}

TEST(EncodeDecode, LinearInverse) {
  for (double w : {0.0, 1.0, 5.5, 150.0}) {
    const double enc = encode_watts(w, 150.0, false);
    EXPECT_NEAR(decode_watts(enc, 150.0, false), w, 1e-9);
  }
}

TEST(EncodeDecode, LogInverse) {
  for (double w : {0.0, 0.5, 3.0, 42.0, 1800.0}) {
    const double enc = encode_watts(w, 2700.0, true);
    EXPECT_NEAR(decode_watts(enc, 2700.0, true), w, 1e-6 * (1 + w));
  }
}

TEST(EncodeDecode, LogSeparatesStandbyFromOff) {
  // The motivating property: in log scale standby sits well above off.
  const double scale = 150.0;
  const double off = encode_watts(0.0, scale, true);
  const double standby = encode_watts(5.0, scale, true);
  const double on = encode_watts(100.0, scale, true);
  EXPECT_EQ(off, 0.0);
  EXPECT_GT(standby, 0.25);
  EXPECT_GT(on, standby + 0.3);
}

TEST(EncodeDecode, NegativeClamped) {
  EXPECT_EQ(encode_watts(-5.0, 100.0, true), 0.0);
  EXPECT_EQ(decode_watts(-0.5, 100.0, false), 0.0);
}

TEST(WindowMath, HistoryNeeded) {
  WindowConfig cfg;
  cfg.window = 16;
  cfg.horizon = 15;
  EXPECT_EQ(history_needed(cfg), 30u);
  EXPECT_EQ(first_feasible_target(cfg, 0), 30u);
  EXPECT_EQ(first_feasible_target(cfg, 100), 100u);
  cfg.horizon = 1;
  EXPECT_EQ(history_needed(cfg), 16u);
}

TEST(Supervised, FeatureAlignment) {
  const auto trace = ramp_trace(200);
  WindowConfig cfg;
  cfg.window = 4;
  cfg.horizon = 3;
  cfg.calendar_features = false;
  cfg.log_scale = false;
  const auto set = make_supervised(trace, cfg, 0, 50);
  ASSERT_GT(set.size(), 0u);
  // First target is window + horizon - 1 = 6.
  EXPECT_EQ(set.target_minute[0], 6u);
  // For target t, features are watts[t-horizon-window+1 .. t-horizon]
  // = {0,1,2,3} for t=6 (scaled).
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(set.x(0, k) * set.scale, static_cast<double>(k), 1e-9);
  }
  EXPECT_NEAR(set.y(0, 0) * set.scale, 6.0, 1e-9);
}

TEST(Supervised, HorizonGapRespected) {
  const auto trace = ramp_trace(300);
  WindowConfig cfg;
  cfg.window = 3;
  cfg.horizon = 10;
  cfg.calendar_features = false;
  cfg.log_scale = false;
  const auto set = make_supervised(trace, cfg, 0, 100);
  // Last feature of each row must be horizon minutes before the target.
  for (std::size_t r = 0; r < set.size(); ++r) {
    const double last_feature = set.x(r, 2) * set.scale;
    EXPECT_NEAR(last_feature,
                static_cast<double>(set.target_minute[r] - 10), 1e-9);
  }
}

TEST(Supervised, CalendarFeaturesOnUnitCircle) {
  const auto trace = ramp_trace(kMinutesPerDay);
  WindowConfig cfg;
  cfg.window = 4;
  cfg.horizon = 1;
  cfg.calendar_features = true;
  const auto set = make_supervised(trace, cfg, 0, kMinutesPerDay);
  ASSERT_EQ(set.features(), 6u);
  for (std::size_t r = 0; r < set.size(); r += 37) {
    const double s = set.x(r, 4);
    const double c = set.x(r, 5);
    EXPECT_NEAR(s * s + c * c, 1.0, 1e-9);
  }
}

TEST(Supervised, StrideSubsamples) {
  const auto trace = ramp_trace(500);
  WindowConfig cfg;
  cfg.window = 4;
  cfg.horizon = 1;
  cfg.stride = 5;
  const auto dense = make_supervised(trace, cfg, 0, 400);
  cfg.stride = 1;
  const auto full = make_supervised(trace, cfg, 0, 400);
  EXPECT_NEAR(static_cast<double>(full.size()) / dense.size(), 5.0, 0.2);
  // Strided targets advance by stride.
  EXPECT_EQ(dense.target_minute[1] - dense.target_minute[0], 5u);
}

TEST(Supervised, EmptyWhenRangeTooShort) {
  const auto trace = ramp_trace(100);
  WindowConfig cfg;
  cfg.window = 30;
  cfg.horizon = 80;
  const auto set = make_supervised(trace, cfg, 0, 100);
  EXPECT_EQ(set.size(), 0u);
}

TEST(Sequences, AlignedWithSupervised) {
  const auto trace = ramp_trace(300);
  WindowConfig cfg;
  cfg.window = 5;
  cfg.horizon = 4;
  cfg.calendar_features = false;
  cfg.log_scale = false;
  const auto sup = make_supervised(trace, cfg, 10, 200);
  const auto seq = make_sequences(trace, cfg, 10, 200);
  ASSERT_EQ(sup.size(), seq.size());
  ASSERT_EQ(seq.xs.size(), 5u);
  EXPECT_EQ(seq.step_features(), 1u);
  for (std::size_t r = 0; r < sup.size(); r += 11) {
    EXPECT_EQ(sup.target_minute[r], seq.target_minute[r]);
    for (std::size_t t = 0; t < 5; ++t) {
      EXPECT_NEAR(seq.xs[t](r, 0), sup.x(r, t), 1e-12);
    }
    EXPECT_NEAR(seq.y(r, 0), sup.y(r, 0), 1e-12);
  }
}

TEST(Sequences, CalendarPerStep) {
  const auto trace = ramp_trace(kMinutesPerDay);
  WindowConfig cfg;
  cfg.window = 3;
  cfg.horizon = 1;
  cfg.calendar_features = true;
  const auto seq = make_sequences(trace, cfg, 0, 600);
  EXPECT_EQ(seq.step_features(), 3u);
  for (std::size_t r = 0; r < seq.size(); r += 53) {
    for (std::size_t t = 0; t < 3; ++t) {
      const double s = seq.xs[t](r, 1);
      const double c = seq.xs[t](r, 2);
      EXPECT_NEAR(s * s + c * c, 1.0, 1e-9);
    }
  }
}

TEST(Split, EightyTwenty) {
  EXPECT_EQ(train_test_split(1000).train_end, 800u);
  EXPECT_EQ(train_test_split(1000, 0.5).train_end, 500u);
  EXPECT_EQ(train_test_split(0).train_end, 0u);
  EXPECT_EQ(train_test_split(10, 2.0).train_end, 10u);  // clamped
}

TEST(Accuracy, ExactPredictionIsOne) {
  EXPECT_DOUBLE_EQ(prediction_accuracy(50.0, 50.0), 1.0);
}

TEST(Accuracy, RelativeError) {
  EXPECT_NEAR(prediction_accuracy(90.0, 100.0), 0.9, 1e-12);
  EXPECT_NEAR(prediction_accuracy(110.0, 100.0), 0.9, 1e-12);
}

TEST(Accuracy, ClampedAtZero) {
  EXPECT_EQ(prediction_accuracy(300.0, 100.0), 0.0);
}

TEST(Accuracy, OffDeviceSemantics) {
  // Real value below floor: correct if prediction is also near zero.
  EXPECT_EQ(prediction_accuracy(0.1, 0.0), 1.0);
  EXPECT_EQ(prediction_accuracy(40.0, 0.0), 0.0);
}

TEST(NormalizationScale, HasHeadroom) {
  DeviceSpec spec;
  spec.on_watts = 100.0;
  EXPECT_DOUBLE_EQ(normalization_scale(spec), 150.0);
  spec.on_watts = 0.1;
  EXPECT_GE(normalization_scale(spec), 1.0);
}

// --- One encoder: the builders against a per-sample reference ----------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The hour-of-day formula, evaluated directly in its own order.
HourFeatures hour_formula(std::size_t minute) {
  const double hour_frac = static_cast<double>(minute % kMinutesPerDay) /
                           static_cast<double>(kMinutesPerDay);
  return {std::sin(2.0 * std::numbers::pi * hour_frac),
          std::cos(2.0 * std::numbers::pi * hour_frac)};
}

TEST(HourFeatures, TableEntryIsTheFormulaBitwise) {
  for (std::size_t m = 0; m < 3 * kMinutesPerDay; ++m) {
    const HourFeatures want = hour_formula(m);
    const HourFeatures& got = hour_features(m);
    ASSERT_TRUE(same_bits(got.sin_h, want.sin_h)) << "minute " << m;
    ASSERT_TRUE(same_bits(got.cos_h, want.cos_h)) << "minute " << m;
  }
}

/// Readings spanning off, standby and on, with a few negatives (clamped by
/// the encoder), over two days and a bit.
DeviceTrace varied_trace(std::size_t minutes) {
  DeviceTrace trace = ramp_trace(minutes);
  for (std::size_t m = 0; m < minutes; ++m) {
    trace.watts[m] = static_cast<double>((m * 7919) % 211) * 0.75 - 3.0;
  }
  return trace;
}

/// The targets a set over [begin, end) holds, from the definition: every
/// stride-th minute from the first with a full window and horizon behind
/// it, up to the end of the range or of the trace.
std::vector<std::size_t> reference_targets(const WindowConfig& cfg,
                                           std::size_t minutes,
                                           std::size_t begin,
                                           std::size_t end) {
  std::vector<std::size_t> out;
  const std::size_t stride = std::max<std::size_t>(1, cfg.stride);
  const std::size_t first =
      std::max(begin, cfg.window + cfg.horizon - 1);
  for (std::size_t t = first; t < std::min(end, minutes); t += stride) {
    out.push_back(t);
  }
  return out;
}

/// Checks both builders over [begin, end) against a per-sample reference
/// that calls encode_watts per value and the hour formula per minute.
void expect_builders_match_reference(const DeviceTrace& trace,
                                     const WindowConfig& cfg,
                                     std::size_t begin, std::size_t end) {
  const auto targets = reference_targets(cfg, trace.minutes(), begin, end);
  const std::size_t n = targets.size();
  const double scale = normalization_scale(trace.spec);
  const auto enc = [&](std::size_t m) {
    return encode_watts(trace.watts[m], scale, cfg.log_scale);
  };
  const auto sup = make_supervised(trace, cfg, begin, end);
  const auto seq = make_sequences(trace, cfg, begin, end);
  ASSERT_EQ(sup.target_minute, targets);
  ASSERT_EQ(seq.target_minute, targets);
  ASSERT_EQ(sup.x.rows(), n);
  ASSERT_EQ(sup.x.cols(), cfg.window + (cfg.calendar_features ? 2 : 0));
  ASSERT_EQ(sup.y.rows(), n);
  ASSERT_EQ(seq.xs.size(), cfg.window);
  ASSERT_EQ(seq.y.rows(), n);
  EXPECT_EQ(sup.scale, scale);
  EXPECT_EQ(seq.scale, scale);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = targets[i];
    const std::size_t w0 = t - cfg.horizon - cfg.window + 1;
    ASSERT_TRUE(same_bits(sup.y(i, 0), enc(t))) << "target " << t;
    ASSERT_TRUE(same_bits(seq.y(i, 0), enc(t))) << "target " << t;
    for (std::size_t k = 0; k < cfg.window; ++k) {
      ASSERT_TRUE(same_bits(sup.x(i, k), enc(w0 + k)))
          << "target " << t << " k " << k;
      ASSERT_EQ(seq.xs[k].cols(), cfg.calendar_features ? 3u : 1u);
      ASSERT_TRUE(same_bits(seq.xs[k](i, 0), enc(w0 + k)))
          << "target " << t << " step " << k;
      if (cfg.calendar_features) {
        const HourFeatures h = hour_formula(w0 + k);
        ASSERT_TRUE(same_bits(seq.xs[k](i, 1), h.sin_h));
        ASSERT_TRUE(same_bits(seq.xs[k](i, 2), h.cos_h));
      }
    }
    if (cfg.calendar_features) {
      const HourFeatures h = hour_formula(t);
      ASSERT_TRUE(same_bits(sup.x(i, cfg.window), h.sin_h)) << "target " << t;
      ASSERT_TRUE(same_bits(sup.x(i, cfg.window + 1), h.cos_h));
    }
  }
}

TEST(OneEncoder, BuildersMatchPerSampleReferenceBitwise) {
  const std::size_t minutes = 2 * kMinutesPerDay + 200;
  const auto trace = varied_trace(minutes);
  std::size_t sets = 0, empty = 0;
  for (const std::size_t window : {1u, 8u, 16u}) {
    for (const std::size_t horizon : {1u, 3u}) {
      for (const std::size_t stride : {1u, 6u, 25u}) {
        for (const bool calendar : {false, true}) {
          for (const bool log_scale : {false, true}) {
            for (const std::size_t begin : {0u, 37u, 1440u}) {
              WindowConfig cfg;
              cfg.window = window;
              cfg.horizon = horizon;
              cfg.stride = stride;
              cfg.calendar_features = calendar;
              cfg.log_scale = log_scale;
              SCOPED_TRACE(::testing::Message()
                           << "window " << window << " horizon " << horizon
                           << " stride " << stride << " calendar "
                           << calendar << " log " << log_scale << " begin "
                           << begin);
              // Past the trace's end, and a short range (empty unless
              // begin already has a full history behind it).
              for (const std::size_t end : {minutes + 50, begin + 5}) {
                expect_builders_match_reference(trace, cfg, begin, end);
                if (HasFatalFailure()) return;
                ++sets;
                if (sample_count(trace, cfg, begin, end) == 0) ++empty;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(sets, 432u);
  EXPECT_GT(empty, 0u);  // the empty set is part of the grid
}

class EncodeDecodeSweep
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(EncodeDecodeSweep, InverseProperty) {
  const auto [scale, log_scale] = GetParam();
  for (double w = 0.0; w <= scale * 1.2; w += scale / 17.0) {
    const double enc = encode_watts(w, scale, log_scale);
    EXPECT_NEAR(decode_watts(enc, scale, log_scale), w, 1e-6 * (1 + w));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scales, EncodeDecodeSweep,
    ::testing::Combine(::testing::Values(10.0, 150.0, 2700.0, 6000.0),
                       ::testing::Bool()));

}  // namespace
}  // namespace pfdrl::data
