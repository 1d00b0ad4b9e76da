// Cross-home fused forecaster training (docs/fused_training.md).
//
// A DFL round trains one forecaster per (home, device) on that device's
// newly recorded minutes — thousands of tiny minibatches through
// identical architectures. The fused trainer takes a group of such jobs
// (same method, same window shape, one train config) and runs the
// group's epochs in lockstep. Each call first encodes, per job, every
// trace minute the job's rows can read, once (data::EncodedSpan — the
// span make_sequences / make_supervised copy their rows from). For each
// (epoch, batch offset) it then copies every participating job's rows
// out of that span into one reused home-major batch slab, so a gathered
// row is bitwise the materialized one, and trains the slab through the
// nn::Fused* engines against each job's own parameter bank and Adam
// state. No per-job dataset is ever built: the spans and shuffle orders
// live for one call, and what the trainer keeps between calls is sized
// by the group and the batch size, never by the round's length.
//
// This is the only minibatch training loop: the BP, LSTM and GRU
// forecasters' own train() runs one job through train_group_of_one().
//
// Determinism contract: a group of one is the per-home path. Per job,
// the empty-dataset early-out fires before any RNG use, each epoch
// shuffles the job's own index order with the job's own RNG, batches are
// visited at the same offsets whatever the group, and each slice's
// forward/BPTT/Adam step is bitwise its one-member batch (nn/fused.hpp).
// Jobs whose dataset runs out of batches early simply drop out of later
// fused batches; their epoch-loss bookkeeping is untouched by the
// others. So a group of N equals N groups of one, pinned by
// FusedForecastTrainer.MatchesPerJobTrainBitwise (fl_trainer_test).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "data/trace.hpp"
#include "forecast/forecaster.hpp"
#include "nn/fused.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {
class GruRegressor;
class LstmRegressor;
class Mlp;
}  // namespace pfdrl::nn

namespace pfdrl::forecast {

/// One (home, device) training job inside a fused group. `loss` receives
/// the value Forecaster::train() would have returned.
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

/// Fused multi-home forecaster trainer. One train() call performs one
/// Forecaster::train(trace, begin, end, cfg, rng) per job, bitwise
/// identical to running the jobs one by one.
class FusedForecastTrainer {
 public:
  /// Runs the whole group over [begin, end) with the shared config.
  /// Returns false — with no job state touched — when the group is not
  /// fusable (closed-form LR/SVR or mixed methods, mismatched network or
  /// window shapes); the caller must fall back to per-job
  /// Forecaster::train(), which runs a minibatch method as a group of
  /// one.
  bool train(std::span<FusedTrainJob> jobs, std::size_t begin,
             std::size_t end, const TrainConfig& cfg);

  /// Heap bytes the trainer holds between train() calls: batch slabs and
  /// dispatch buffers. Bounded by the group size and the batch size,
  /// independent of the round's length. (Training intermediates live in
  /// each thread's nn::thread_scratch(), not here.)
  [[nodiscard]] std::size_t retained_bytes() const noexcept;

 private:
  /// The lockstep epoch loop shared by every method: per-batch gather
  /// into slab_xs_ (window step slabs when `sequence`, else one flat
  /// slab) and slab_y_, then `step()` trains part_/slices_/opts_ through
  /// the method's engine into batch_losses_.
  void run_epochs(std::span<FusedTrainJob> jobs, std::size_t begin,
                  std::size_t end, const TrainConfig& tcfg, bool sequence,
                  const std::function<void()>& step);

  nn::FusedLstm lstm_;
  nn::FusedGru gru_;
  nn::FusedMlp mlp_;
  // One fused batch, reused across batches and calls.
  std::vector<nn::Matrix> slab_xs_;
  std::vector<const nn::Matrix*> xs_ptrs_;
  nn::Matrix slab_y_;
  std::vector<std::size_t> part_;  // jobs participating in one batch
  std::vector<nn::FusedSlice> slices_;
  std::vector<nn::Optimizer*> opts_;
  std::vector<double> batch_losses_;
  // Per-job network/optimizer handles, and their per-batch selections.
  std::vector<nn::Adam*> adams_;
  std::vector<nn::LstmRegressor*> lstm_all_, lstm_nets_;
  std::vector<nn::GruRegressor*> gru_all_, gru_nets_;
  std::vector<nn::Mlp*> mlp_all_, mlp_nets_;
};

}  // namespace pfdrl::forecast
