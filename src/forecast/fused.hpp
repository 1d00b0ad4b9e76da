// Lockstep forecaster training of a group of homes
// (docs/fused_training.md).
//
// A DFL round trains one forecaster per (home, device) on that device's
// newly recorded minutes — thousands of tiny minibatches. The group
// trainer takes a group of such jobs (one minibatch method, one train
// config) and runs the group's epochs in lockstep. Each call first
// encodes, per job, every trace minute the job's rows can read, once
// (data::EncodedSpan — the span make_sequences / make_supervised copy
// their rows from). For each (epoch, batch offset) it then runs one pool
// task per participating job: the task copies the job's rows out of its
// span into its thread's nn::thread_scratch(), so a copied row is
// bitwise the materialized one, and trains them through the method's
// member step (nn::lstm/gru/mlp_train_step) against the job's own
// parameter bank and Adam state. No per-job dataset is ever built, and
// the spans and shuffle orders live for one call.
//
// This is the only minibatch training loop: the BP, LSTM and GRU
// forecasters' own train() runs one job through train_group_of_one().
//
// Determinism contract: a group of one is the per-home path. Per job,
// the empty-dataset early-out fires before any RNG use, each epoch
// shuffles the job's own index order with the job's own RNG, batches are
// visited at the same offsets whatever the group, and each member step
// reads only the job's own rows and state (nn/fused.hpp). Jobs whose
// dataset runs out of batches early simply drop out of later batch
// offsets; their epoch-loss bookkeeping is untouched by the others. So a
// group of N equals N groups of one, pinned by
// FusedForecastTrainer.MatchesPerJobTrainBitwise (fl_trainer_test).
#pragma once

#include <cstddef>
#include <span>

#include "data/trace.hpp"
#include "forecast/forecaster.hpp"
#include "util/rng.hpp"

namespace pfdrl::forecast {

/// True for the methods trained in minibatches (BP, LSTM, GRU) — the
/// ones a FusedForecastTrainer group can hold. LR and SVR have their own
/// Forecaster::train loops.
[[nodiscard]] constexpr bool minibatch_method(Method m) noexcept {
  return m == Method::kBp || m == Method::kLstm || m == Method::kGru;
}

/// One (home, device) training job inside a group. `loss` receives the
/// value Forecaster::train() would have returned.
struct FusedTrainJob {
  Forecaster* forecaster = nullptr;
  const data::DeviceTrace* trace = nullptr;
  util::Rng* rng = nullptr;
  double loss = 0.0;
};

/// Forecaster::train() of the minibatch methods (BP, LSTM, GRU): runs
/// `forecaster` through a one-job FusedForecastTrainer and returns the
/// job's loss (the final epoch's mean batch loss).
double train_group_of_one(Forecaster& forecaster,
                          const data::DeviceTrace& trace, std::size_t begin,
                          std::size_t end, const TrainConfig& cfg,
                          util::Rng& rng);

/// Lockstep multi-home forecaster trainer. One train() call performs one
/// Forecaster::train(trace, begin, end, cfg, rng) per job, bitwise
/// identical to running the jobs one by one. It keeps nothing between
/// calls.
class FusedForecastTrainer {
 public:
  /// Runs the whole group over [begin, end) with the shared config.
  /// Throws std::invalid_argument unless every job's forecaster has one
  /// and the same minibatch_method().
  void train(std::span<FusedTrainJob> jobs, std::size_t begin,
             std::size_t end, const TrainConfig& cfg);
};

}  // namespace pfdrl::forecast
