#include "ems/env.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "data/dataset.hpp"

namespace pfdrl::ems {
namespace {

using data::DeviceMode;

/// Crafted trace: off for 60, standby for 120, on for 60, standby rest.
data::DeviceTrace crafted_trace(std::size_t minutes = 480) {
  data::DeviceTrace t;
  t.spec.type = data::DeviceType::kTv;
  t.spec.standby_watts = 6.0;
  t.spec.on_watts = 120.0;
  t.watts.resize(minutes);
  t.modes.resize(minutes);
  for (std::size_t m = 0; m < minutes; ++m) {
    if (m < 60) {
      t.modes[m] = DeviceMode::kOff;
      t.watts[m] = 0.0;
    } else if (m < 180) {
      t.modes[m] = DeviceMode::kStandby;
      t.watts[m] = 6.0;
    } else if (m < 240) {
      t.modes[m] = DeviceMode::kOn;
      t.watts[m] = 120.0;
    } else {
      t.modes[m] = DeviceMode::kStandby;
      t.watts[m] = 6.0;
    }
  }
  return t;
}

std::vector<double> flat_forecast(std::size_t n, double watts) {
  return std::vector<double>(n, watts);
}

TEST(Env, SpanValidation) {
  const auto trace = crafted_trace(100);
  EXPECT_THROW(EmsEnvironment(trace, flat_forecast(200, 6.0), 0),
               std::invalid_argument);
  EXPECT_NO_THROW(EmsEnvironment(trace, flat_forecast(100, 6.0), 0));
  EXPECT_THROW(EmsEnvironment(trace, flat_forecast(50, 6.0), 60),
               std::invalid_argument);
}

TEST(Env, LengthAndAccessors) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(100, 6.0), 50, 5);
  EXPECT_EQ(env.length(), 100u);
  EXPECT_EQ(env.begin_minute(), 50u);
  EXPECT_EQ(env.meter_interval(), 5u);
  EXPECT_DOUBLE_EQ(env.real_watts(10), trace.watts[60]);
  EXPECT_DOUBLE_EQ(env.forecast_watts(3), 6.0);
}

TEST(Env, LastReportMinuteMath) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(100, 6.0), 0, 15);
  EXPECT_EQ(env.last_report_minute(0), 0u);
  EXPECT_EQ(env.last_report_minute(1), 0u);
  EXPECT_EQ(env.last_report_minute(15), 0u);
  EXPECT_EQ(env.last_report_minute(16), 15u);
  EXPECT_EQ(env.last_report_minute(31), 30u);
}

TEST(Env, ContinuousMeteringInterval1) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(480, 6.0), 0, 1);
  // With a 1-minute interval, the last report when acting at t is t-1.
  EXPECT_EQ(env.last_report_minute(100), 99u);
}

TEST(Env, StateDimAndRange) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(480, 6.0), 0, 5);
  const auto s = env.state_at(100);
  ASSERT_EQ(s.size(), EmsEnvironment::kStateDim);
  // Encoded watts in [0, ~1], calendar in [-1, 1].
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(s[i], 0.0);
    EXPECT_LE(s[i], 1.2);
  }
  EXPECT_GE(s[3], -1.0);
  EXPECT_LE(s[3], 1.0);
}

TEST(Env, StateIsCausal) {
  // The state at step t must not depend on watts[t] (only on reported
  // history and the forecast): modify watts at t and observe no change.
  auto trace = crafted_trace();
  const std::size_t t = 200;
  EmsEnvironment env_a(trace, flat_forecast(480, 6.0), 0, 5);
  const auto before = env_a.state_at(t);
  trace.watts[t] = 9999.0;
  EmsEnvironment env_b(trace, flat_forecast(480, 6.0), 0, 5);
  const auto after = env_b.state_at(t);
  EXPECT_EQ(before, after);
}

TEST(Env, StateUsesLatestReport) {
  // Changing the most recent report minute's watts must change the state.
  auto trace = crafted_trace();
  const std::size_t t = 203;  // last report at 200 with interval 5
  EmsEnvironment env_a(trace, flat_forecast(480, 6.0), 0, 5);
  const auto before = env_a.state_at(t);
  trace.watts[200] = 80.0;
  EmsEnvironment env_b(trace, flat_forecast(480, 6.0), 0, 5);
  const auto after = env_b.state_at(t);
  EXPECT_NE(before[1], after[1]);
}

TEST(Env, ObservedAndTrueModes) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(480, 6.0), 0, 5);
  EXPECT_EQ(env.observed_mode(30), DeviceMode::kOff);
  EXPECT_EQ(env.observed_mode(100), DeviceMode::kStandby);
  EXPECT_EQ(env.observed_mode(200), DeviceMode::kOn);
  EXPECT_EQ(env.true_mode(30), DeviceMode::kOff);
  EXPECT_EQ(env.true_mode(200), DeviceMode::kOn);
}

TEST(Env, PredictedModeFromForecast) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(480, 120.0), 0, 5);
  EXPECT_EQ(env.predicted_mode(0), DeviceMode::kOn);
}

TEST(Env, RewardMatchesTable) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(480, 6.0), 0, 5);
  // Step 100 is standby: off pays +30, standby +10, on -10.
  EXPECT_DOUBLE_EQ(env.reward_at(100, 0), 30.0);
  EXPECT_DOUBLE_EQ(env.reward_at(100, 1), 10.0);
  EXPECT_DOUBLE_EQ(env.reward_at(100, 2), -10.0);
  // Step 200 is on: off pays -30.
  EXPECT_DOUBLE_EQ(env.reward_at(200, 0), -30.0);
  EXPECT_DOUBLE_EQ(env.reward_at(200, 2), 10.0);
}

TEST(Env, OffsetBeginAlignsIndices) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(100, 6.0), 150, 5);
  // idx 40 -> trace minute 190 (on period).
  EXPECT_EQ(env.true_mode(40), DeviceMode::kOn);
}

TEST(Env, StateIntoMatchesStateAt) {
  const auto trace = crafted_trace();
  EmsEnvironment env(trace, flat_forecast(200, 6.0), 40, 5);
  std::array<double, EmsEnvironment::kStateDim> buf{};
  for (std::size_t idx : {0u, 1u, 17u, 60u, 199u}) {
    const auto expected = env.state_at(idx);
    env.state_into(idx, buf);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(buf[i], expected[i]) << "idx " << idx << " dim " << i;
    }
  }
}

// Every state of a day, bitwise the formula the environment is specified
// by: log-encoded forecast and meter reports, then sin/cos of the
// hour-of-day angle evaluated directly (the table must not move a bit).
TEST(Env, StateOverADayMatchesFormulaBitwise) {
  const std::size_t begin = 50, minutes = data::kMinutesPerDay + 100;
  auto trace = crafted_trace(minutes);
  std::vector<double> forecast(data::kMinutesPerDay);
  for (std::size_t m = 0; m < minutes; ++m) {
    trace.watts[m] = static_cast<double>((m * 37) % 151) * 0.9 - 2.0;
  }
  for (std::size_t i = 0; i < forecast.size(); ++i) {
    forecast[i] = static_cast<double>((i * 53) % 149) * 1.1 - 1.0;
  }
  const std::size_t meter = 5;
  const double scale = data::normalization_scale(trace.spec);
  EmsEnvironment env(trace, forecast, begin, meter);
  std::array<double, EmsEnvironment::kStateDim> got{};
  for (std::size_t idx = 0; idx < env.length(); ++idx) {
    const std::size_t minute = begin + idx;
    const std::size_t report = ((minute - 1) / meter) * meter;
    const std::size_t prev = report >= meter ? report - meter : 0;
    const double hour_frac =
        static_cast<double>(minute % data::kMinutesPerDay) /
        static_cast<double>(data::kMinutesPerDay);
    const std::array<double, EmsEnvironment::kStateDim> want = {
        data::encode_watts(forecast[idx], scale, true),
        data::encode_watts(trace.watts[report], scale, true),
        data::encode_watts(trace.watts[prev], scale, true),
        std::sin(2.0 * std::numbers::pi * hour_frac),
        std::cos(2.0 * std::numbers::pi * hour_frac)};
    env.state_into(idx, got);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "idx " << idx << " dim " << i;
    }
  }
}

TEST(Env, SharedForecastCtorMatchesValueCtor) {
  const auto trace = crafted_trace();
  auto series =
      std::make_shared<const std::vector<double>>(flat_forecast(100, 6.0));
  EmsEnvironment by_value(trace, flat_forecast(100, 6.0), 50, 5);
  EmsEnvironment shared(trace, series, 50, 5);
  EXPECT_EQ(shared.length(), by_value.length());
  for (std::size_t idx : {0u, 30u, 99u}) {
    EXPECT_EQ(shared.state_at(idx), by_value.state_at(idx));
    EXPECT_EQ(shared.forecast_watts(idx), by_value.forecast_watts(idx));
  }
  EXPECT_THROW(
      EmsEnvironment(trace, std::shared_ptr<const std::vector<double>>{}, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace pfdrl::ems
