// Forecast evaluation helpers shared by the benches and the DFL trainer:
// the paper's relative-accuracy metric aggregated overall, per hour of
// day, and as raw per-prediction samples (for the CDF figure).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "data/trace.hpp"
#include "forecast/forecaster.hpp"

namespace pfdrl::forecast {

struct EvalResult {
  double mean_accuracy = 0.0;
  std::size_t samples = 0;
};

/// Mean paper-accuracy of `preds[i]` against trace minute t0 + i (stops
/// at the end of the trace). evaluate() and
/// core::EmsPipeline::forecast_accuracy (which scores cached series) both
/// go through it, so the two accuracy paths cannot drift.
EvalResult score(std::span<const double> preds, const data::DeviceTrace& trace,
                 std::size_t t0);

/// Evaluate one-step-ahead accuracy over trace minutes [begin, end).
EvalResult evaluate(const Forecaster& model, const data::DeviceTrace& trace,
                    std::size_t begin, std::size_t end);

/// Per-prediction accuracies (for CDF plots).
std::vector<double> accuracy_samples(const Forecaster& model,
                                     const data::DeviceTrace& trace,
                                     std::size_t begin, std::size_t end);

/// Mean accuracy bucketed by hour of day; buckets with no samples are 0.
std::array<double, 24> accuracy_by_hour(const Forecaster& model,
                                        const data::DeviceTrace& trace,
                                        std::size_t begin, std::size_t end);

}  // namespace pfdrl::forecast
