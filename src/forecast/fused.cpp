#include "forecast/fused.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "data/dataset.hpp"
#include "forecast/bp.hpp"
#include "forecast/gru_forecaster.hpp"
#include "forecast/lstm_forecaster.hpp"
#include "nn/fused.hpp"
#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::forecast {

// The group trainer is each minibatch forecaster's train loop; of the
// forecaster's private state it needs the network and its Adam
// optimizer — nothing else. `f` is one of the minibatch_method()s.
struct FusedAccess {
  static nn::Adam& opt(Forecaster& f) {
    switch (f.method()) {
      case Method::kLstm: return static_cast<LstmForecaster&>(f).opt_;
      case Method::kGru: return static_cast<GruForecaster&>(f).opt_;
      default: return static_cast<BpForecaster&>(f).opt_;
    }
  }

  /// One member step of `f` on its batch (xs: window steps, or the one
  /// flat input for BP; y: targets). Returns the batch loss.
  static double step(Forecaster& f, std::span<const nn::Matrix* const> xs,
                     const nn::Matrix& y) {
    switch (f.method()) {
      case Method::kLstm: {
        auto& lf = static_cast<LstmForecaster&>(f);
        return nn::lstm_train_step(lf.net_, xs, y, nn::LossKind::kMae,
                                   lf.opt_, /*clip_norm=*/5.0);
      }
      case Method::kGru: {
        auto& gf = static_cast<GruForecaster&>(f);
        return nn::gru_train_step(gf.net_, xs, y, nn::LossKind::kMae,
                                  gf.opt_, /*clip_norm=*/5.0);
      }
      default: {
        auto& bf = static_cast<BpForecaster&>(f);
        return nn::mlp_train_step(bf.net_, *xs.front(), y,
                                  nn::LossKind::kMae, bf.opt_);
      }
    }
  }
};

void FusedForecastTrainer::train(std::span<FusedTrainJob> jobs,
                                 std::size_t begin, std::size_t end,
                                 const TrainConfig& cfg) {
  if (jobs.empty()) return;
  const Method method = jobs.front().forecaster->method();
  for (const FusedTrainJob& j : jobs) {
    if (!minibatch_method(method) || j.forecaster->method() != method) {
      throw std::invalid_argument(
          "FusedForecastTrainer: a group is one minibatch method (BP, LSTM "
          "or GRU)");
    }
  }
  const TrainConfig tcfg = resolve_train_config(method, cfg);
  const bool sequence = method != Method::kBp;

  // Per-job state of this call only — the shuffle orders and encoded
  // spans are the only things sized by the round's length, and they die
  // with the call.
  struct Member {
    data::WindowConfig wc;
    std::size_t samples = 0;
    std::size_t first_target = 0;
    std::vector<std::size_t> order;
    data::EncodedSpan span;  // every minute the job's rows read, encoded
    std::vector<const nn::Matrix*> xs;  // this batch's inputs, in scratch
    double loss_sum = 0.0;
    std::size_t batches = 0;
  };
  std::vector<Member> members(jobs.size());
  const std::size_t stride = std::max<std::size_t>(1, tcfg.stride);
  std::size_t max_samples = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Member& m = members[j];
    m.wc = jobs[j].forecaster->window_config();
    m.wc.stride = stride;
    m.samples = data::sample_count(*jobs[j].trace, m.wc, begin, end);
    m.first_target = data::first_feasible_target(m.wc, begin);
    jobs[j].loss = 0.0;
    // Empty datasets early-out before any RNG use, as the solo path does.
    if (m.samples == 0) continue;
    FusedAccess::opt(*jobs[j].forecaster)
        .set_learning_rate(tcfg.learning_rate);
    m.order.resize(m.samples);
    std::iota(m.order.begin(), m.order.end(), 0);
    m.span = data::EncodedSpan(*jobs[j].trace, m.wc, m.first_target,
                               m.samples);
    m.xs.resize(sequence ? m.wc.window : 1);
    max_samples = std::max(max_samples, m.samples);
  }

  // One member step of job j on its batch at `ofs`: its rows, copied out
  // of its span into the running thread's scratch, then the method's
  // train step, which takes its own slots after them.
  const auto member_step = [&](std::size_t j, std::size_t ofs) {
    Member& m = members[j];
    const std::size_t bs = std::min(tcfg.batch_size, m.samples - ofs);
    const std::size_t steps = m.xs.size();
    const std::size_t feat =
        sequence ? data::step_features(m.wc) : data::flat_features(m.wc);
    nn::Workspace& ws = nn::thread_scratch();
    ws.reset();
    const std::size_t first = ws.cursor();
    for (std::size_t k = 0; k < steps; ++k) m.xs[k] = &ws.take(bs, feat);
    nn::Matrix& y = ws.take(bs, 1);
    for (std::size_t i = 0; i < bs; ++i) {
      const std::size_t t = m.first_target + m.order[ofs + i] * stride;
      if (sequence) {
        const std::size_t w0 = data::window_start(m.wc, t);
        for (std::size_t k = 0; k < steps; ++k) {
          m.span.step(w0 + k, ws.slot(first + k).row(i).data());
        }
      } else {
        m.span.flat_row(t, ws.slot(first).row(i).data());
      }
      y(i, 0) = m.span.at(t);
    }
    m.loss_sum += FusedAccess::step(*jobs[j].forecaster, m.xs, y);
    ++m.batches;
  };

  util::ThreadPool& pool = util::ThreadPool::global();
  std::vector<std::size_t> part;  // jobs participating in one batch
  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Member& m = members[j];
      if (m.samples == 0) continue;
      jobs[j].rng->shuffle(m.order);
      m.loss_sum = 0.0;
      m.batches = 0;
    }
    for (std::size_t ofs = 0; ofs < max_samples; ofs += tcfg.batch_size) {
      part.clear();
      std::size_t rows = 0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::size_t n = members[j].samples;
        if (ofs >= n) continue;  // this job ran out of batches this epoch
        part.push_back(j);
        rows += std::min(tcfg.batch_size, n - ofs);
      }
      // One task per participant: each touches only its own job's state,
      // so the fan-out cannot change any job's bits.
      pool.parallel_for(0, part.size(),
                        [&](std::size_t p) { member_step(part[p], ofs); });
      nn::note_fused_batch(part.size(), rows);
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Member& m = members[j];
      if (m.samples == 0) continue;
      jobs[j].loss = m.batches != 0
                         ? m.loss_sum / static_cast<double>(m.batches)
                         : 0.0;
    }
  }
}

double train_group_of_one(Forecaster& forecaster,
                          const data::DeviceTrace& trace, std::size_t begin,
                          std::size_t end, const TrainConfig& cfg,
                          util::Rng& rng) {
  FusedTrainJob job{&forecaster, &trace, &rng};
  FusedForecastTrainer().train({&job, 1}, begin, end, cfg);
  return job.loss;
}

}  // namespace pfdrl::forecast
