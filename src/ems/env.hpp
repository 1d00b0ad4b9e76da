// The per-device EMS environment (paper §3.3.1 MDP).
//
// At each minute the agent observes the *predicted* energy value (from
// the DFL load forecast) and the *real-time* energy value (from the
// meter) — exactly the state the paper defines (§3.3.1: "the state space
// consists of two separate parts: the predicted energy consumption ...
// and the real-time energy consumption").
//
// Causality matters: the action for minute t must be chosen before
// minute t's consumption is measured (a minute already metered cannot be
// reclaimed), and smart-plug meters report on an interval rather than
// continuously (default: every 15 minutes — typical for home energy
// monitors). The real-time part of the state is therefore the last two
// *reported* readings, while the forecast part is the prediction *for* t:
//   [ pred watts(t) | real watts(last report) | real watts(prev report) |
//     sin hour | cos hour ]        (all watts log-encoded)
// Between reports only the forecast and the learned (household-specific)
// schedule can tell the agent what the device is doing — which is why
// the paper stresses that "the DRL agent performance is highly
// influenced by the DFL load forecasting accuracy", and why household
// schedule knowledge (the personalization layers) has real value.
//
// The mode *thresholds* are deliberately not part of the state: the
// Q-network has to learn each device's off/standby/on power bands, and
// because those bands differ between residences (unit-level jitter),
// this is precisely where PFDRL's personalization layers earn their
// keep and where naive full-model averaging (FRL) misplaces decision
// boundaries.
//
// The agent picks a target mode (off / standby / on). Transitions are
// deterministic (paper: "the probability between states is always 1") —
// the trace advances by one minute regardless of the action; the action
// only earns reward and, when it turns a standby device off, reclaims
// that minute's standby energy.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "data/device.hpp"
#include "data/trace.hpp"
#include "ems/mode.hpp"
#include "ems/reward.hpp"

namespace pfdrl::ems {

class EmsEnvironment {
 public:
  /// `forecast_watts[i]` is the predicted draw for trace minute
  /// `begin + i`; the environment covers minutes [begin, begin + size).
  /// `meter_interval` is the reporting period of the device's meter in
  /// minutes (>= 1; 1 = continuous metering).
  EmsEnvironment(const data::DeviceTrace& trace,
                 std::vector<double> forecast_watts, std::size_t begin,
                 std::size_t meter_interval = kDefaultMeterInterval);
  /// Shared-forecast overload: the environment holds a reference to the
  /// caller's series instead of copying it. Used by core::EpisodeRunner,
  /// whose forecast cache hands the same (possibly multi-day) series to
  /// every episode over a window.
  EmsEnvironment(const data::DeviceTrace& trace,
                 std::shared_ptr<const std::vector<double>> forecast_watts,
                 std::size_t begin,
                 std::size_t meter_interval = kDefaultMeterInterval);

  static constexpr std::size_t kStateDim = 5;
  static constexpr std::size_t kDefaultMeterInterval = 5;

  [[nodiscard]] std::size_t meter_interval() const noexcept {
    return meter_interval_;
  }
  /// Trace minute of the most recent meter report available when acting
  /// at trace minute `minute` (reports land at multiples of the
  /// interval; the report covering minute m is available from m+1 on).
  [[nodiscard]] std::size_t last_report_minute(std::size_t minute)
      const noexcept;

  [[nodiscard]] std::size_t length() const noexcept {
    return forecast_->size();
  }
  [[nodiscard]] std::size_t begin_minute() const noexcept { return begin_; }
  [[nodiscard]] const data::DeviceTrace& trace() const noexcept {
    return *trace_;
  }
  [[nodiscard]] const ModeBands& bands() const noexcept { return bands_; }

  /// State vector for step `idx` in [0, length()).
  [[nodiscard]] std::vector<double> state_at(std::size_t idx) const;
  /// Allocation-free variant: writes the state into `out`, which must be
  /// exactly kStateDim wide. Hot-path entry used by the episode runner.
  void state_into(std::size_t idx, std::span<double> out) const;

  /// Mode classified from the real power reading at step idx (what the
  /// agent and the reward can observe).
  [[nodiscard]] data::DeviceMode observed_mode(std::size_t idx) const;
  /// Mode classified from the forecast at step idx.
  [[nodiscard]] data::DeviceMode predicted_mode(std::size_t idx) const;
  /// Generator ground truth (benchmark accounting only).
  [[nodiscard]] data::DeviceMode true_mode(std::size_t idx) const;

  /// Table-1 reward for taking `action` at step idx.
  [[nodiscard]] double reward_at(std::size_t idx, int action) const;

  /// Real power reading at step idx (watts).
  [[nodiscard]] double real_watts(std::size_t idx) const noexcept;
  [[nodiscard]] double forecast_watts(std::size_t idx) const noexcept;

 private:
  const data::DeviceTrace* trace_;
  std::shared_ptr<const std::vector<double>> forecast_;
  std::size_t begin_;
  std::size_t meter_interval_;
  ModeBands bands_;
  data::WattCodec codec_;  // log scale, the trace's normalization scale
};

}  // namespace pfdrl::ems
