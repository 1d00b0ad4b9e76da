// One episode-rollout path for training and evaluation.
//
// EmsPipeline used to carry three near-identical loops — online training
// (train_ems), greedy scoring (evaluate) and tariff scoring
// (evaluate_savings_dollars) — each rebuilding the same EmsEnvironment
// and, worse, recomputing the same forecast series (the expensive
// predict_series sweep) for the same (home, device, interval) triple.
// EpisodeRunner owns environment construction behind a forecast-series
// cache and provides the one greedy rollout the two evaluators share.
// EmsPipeline::forecast_accuracy scores the same cached series, so an
// evaluation day is predicted once for both.
//
// The cache is keyed (home, dev, begin, end) and must be invalidated
// whenever the forecasting models retrain (the pipeline calls
// invalidate_forecasts() from train_forecasters). Lookups are
// mutex-guarded so parallel_for rollouts can share it; the forecast is
// computed outside the lock — it is a deterministic pure function of the
// models, so a rare duplicate compute under contention is harmless and
// both racers insert identical values.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "data/trace.hpp"
#include "ems/env.hpp"
#include "rl/dqn.hpp"

namespace pfdrl::obs {
class MetricsRegistry;
}

namespace pfdrl::core {

class EpisodeRunner {
 public:
  /// Produces the forecast series (watts, one per minute) for trace
  /// minutes [begin, end) of one device — the pipeline binds whichever
  /// forecasting backend the method uses.
  using ForecastFn = std::function<std::vector<double>(
      std::size_t home, std::size_t dev, std::size_t begin, std::size_t end)>;

  /// `metrics` (optional) receives episode.forecast_cache_hits/misses.
  EpisodeRunner(const std::vector<data::HouseholdTrace>& traces,
                ForecastFn forecast, std::size_t meter_interval_minutes,
                obs::MetricsRegistry* metrics = nullptr);

  /// Forecast series (watts, one per minute) for (home, dev) over trace
  /// minutes [begin, end), from the cache when this key was computed
  /// before and the forecasters have not retrained since. Every lookup
  /// counts as a hit or a miss.
  [[nodiscard]] std::shared_ptr<const std::vector<double>> series(
      std::size_t home, std::size_t dev, std::size_t begin,
      std::size_t end) const;

  /// Environment for (home, dev) over trace minutes [begin, end) on the
  /// cached series().
  [[nodiscard]] ems::EmsEnvironment environment(std::size_t home,
                                                std::size_t dev,
                                                std::size_t begin,
                                                std::size_t end) const;

  /// Greedy rollout: the agent's argmax action for every step of `env`,
  /// bitwise act_greedy per step, computed in 64-state batches.
  [[nodiscard]] static std::vector<int> greedy_actions(
      const rl::DqnAgent& agent, const ems::EmsEnvironment& env);

  /// Drop every cached series. Call after any forecaster retrains —
  /// cached predictions are stale the moment parameters move.
  void invalidate_forecasts();

 private:
  struct Key {
    std::size_t home, dev, begin, end;
    bool operator<(const Key& o) const noexcept {
      if (home != o.home) return home < o.home;
      if (dev != o.dev) return dev < o.dev;
      if (begin != o.begin) return begin < o.begin;
      return end < o.end;
    }
  };

  const std::vector<data::HouseholdTrace>& traces_;
  ForecastFn forecast_;
  std::size_t meter_interval_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  mutable std::map<Key, std::shared_ptr<const std::vector<double>>> cache_;
};

}  // namespace pfdrl::core
