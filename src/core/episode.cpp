#include "core/episode.hpp"

#include <algorithm>
#include <utility>

#include "nn/workspace.hpp"
#include "obs/metrics.hpp"

namespace pfdrl::core {

EpisodeRunner::EpisodeRunner(const std::vector<data::HouseholdTrace>& traces,
                             ForecastFn forecast,
                             std::size_t meter_interval_minutes,
                             obs::MetricsRegistry* metrics)
    : traces_(traces),
      forecast_(std::move(forecast)),
      meter_interval_(meter_interval_minutes),
      metrics_(metrics) {}

std::shared_ptr<const std::vector<double>> EpisodeRunner::series(
    std::size_t home, std::size_t dev, std::size_t begin,
    std::size_t end) const {
  const Key key{home, dev, begin, end};
  std::shared_ptr<const std::vector<double>> series;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) series = it->second;
  }
  if (series) {
    if (metrics_ != nullptr) {
      metrics_->counter("episode.forecast_cache_hits").add(1);
    }
    return series;
  }
  series = std::make_shared<const std::vector<double>>(
      forecast_(home, dev, begin, end));
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.emplace(key, series);
  }
  if (metrics_ != nullptr) {
    metrics_->counter("episode.forecast_cache_misses").add(1);
  }
  return series;
}

ems::EmsEnvironment EpisodeRunner::environment(std::size_t home,
                                               std::size_t dev,
                                               std::size_t begin,
                                               std::size_t end) const {
  // Shared-forecast overload: the environment references the cached
  // series instead of copying a day's worth of minutes per episode.
  return ems::EmsEnvironment(traces_[home].devices[dev],
                             series(home, dev, begin, end), begin,
                             meter_interval_);
}

std::vector<int> EpisodeRunner::greedy_actions(const rl::DqnAgent& agent,
                                               const ems::EmsEnvironment& env) {
  // A greedy rollout's states do not depend on its actions, so they stack
  // into chunks that each take one batched predict. The workspace is this
  // call's own, so no agent keeps evaluation slabs alive.
  constexpr std::size_t kChunk = 64;
  std::vector<int> actions(env.length());
  nn::Workspace ws;
  nn::Matrix states;
  for (std::size_t i0 = 0; i0 < env.length(); i0 += kChunk) {
    const std::size_t n = std::min(kChunk, env.length() - i0);
    states.reshape(n, ems::EmsEnvironment::kStateDim);
    for (std::size_t i = 0; i < n; ++i) env.state_into(i0 + i, states.row(i));
    agent.act_greedy_batch(states, ws, std::span(actions).subspan(i0, n));
  }
  return actions;
}

void EpisodeRunner::invalidate_forecasts() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

}  // namespace pfdrl::core
