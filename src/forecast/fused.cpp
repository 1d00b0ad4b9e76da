#include "forecast/fused.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "data/dataset.hpp"
#include "forecast/bp.hpp"
#include "forecast/gru_forecaster.hpp"
#include "forecast/lstm_forecaster.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/mlp.hpp"

namespace pfdrl::forecast {

// The fused trainer is each minibatch forecaster's train loop; of the
// forecaster's private state it needs the network and its Adam
// optimizer — nothing else.
struct FusedAccess {
  static nn::LstmRegressor& net(LstmForecaster& f) { return f.net_; }
  static nn::Adam& opt(LstmForecaster& f) { return f.opt_; }
  static nn::GruRegressor& net(GruForecaster& f) { return f.net_; }
  static nn::Adam& opt(GruForecaster& f) { return f.opt_; }
  static nn::Mlp& net(BpForecaster& f) { return f.net_; }
  static nn::Adam& opt(BpForecaster& f) { return f.opt_; }
};

namespace {

/// Collects every job's network and optimizer as forecaster type F.
template <typename F, typename Net>
void collect(std::span<FusedTrainJob> jobs, std::vector<Net*>& nets,
             std::vector<nn::Adam*>& adams) {
  nets.clear();
  adams.clear();
  for (const FusedTrainJob& j : jobs) {
    auto& f = static_cast<F&>(*j.forecaster);
    nets.push_back(&FusedAccess::net(f));
    adams.push_back(&FusedAccess::opt(f));
  }
}

/// Recurrent nets fuse when they share (feature, hidden, output) dims.
template <typename Net>
bool same_dims(const std::vector<Net*>& nets) {
  const Net& ref = *nets.front();
  return std::all_of(nets.begin(), nets.end(), [&](const Net* n) {
    return n->feature_dim() == ref.feature_dim() &&
           n->hidden_dim() == ref.hidden_dim() &&
           n->output_dim() == ref.output_dim();
  });
}

/// Selects the batch participants' networks.
template <typename Net>
void select(const std::vector<Net*>& all, const std::vector<std::size_t>& part,
            std::vector<Net*>& out) {
  out.clear();
  for (const std::size_t a : part) out.push_back(all[a]);
}

template <typename T>
std::size_t capacity_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

}  // namespace

bool FusedForecastTrainer::train(std::span<FusedTrainJob> jobs,
                                 std::size_t begin, std::size_t end,
                                 const TrainConfig& cfg) {
  if (jobs.empty()) return true;
  const Method method = jobs.front().forecaster->method();
  const data::WindowConfig& shape = jobs.front().forecaster->window_config();
  for (const FusedTrainJob& j : jobs) {
    const data::WindowConfig& wc = j.forecaster->window_config();
    if (j.forecaster->method() != method || wc.window != shape.window ||
        wc.calendar_features != shape.calendar_features) {
      return false;
    }
  }
  const TrainConfig tcfg = resolve_train_config(method, cfg);
  // Every fusability check precedes run_epochs, the commit point: a
  // refused group has had nothing observable happen to it.
  switch (method) {
    case Method::kLstm:
      collect<LstmForecaster>(jobs, lstm_all_, adams_);
      if (!same_dims(lstm_all_)) return false;
      run_epochs(jobs, begin, end, tcfg, /*sequence=*/true, [&] {
        select(lstm_all_, part_, lstm_nets_);
        lstm_.train_batch(lstm_nets_, slices_, xs_ptrs_, slab_y_,
                          nn::LossKind::kMae, opts_, batch_losses_,
                          /*clip_norm=*/5.0);
      });
      return true;
    case Method::kGru:
      collect<GruForecaster>(jobs, gru_all_, adams_);
      if (!same_dims(gru_all_)) return false;
      run_epochs(jobs, begin, end, tcfg, /*sequence=*/true, [&] {
        select(gru_all_, part_, gru_nets_);
        gru_.train_batch(gru_nets_, slices_, xs_ptrs_, slab_y_,
                         nn::LossKind::kMae, opts_, batch_losses_,
                         /*clip_norm=*/5.0);
      });
      return true;
    case Method::kBp: {
      collect<BpForecaster>(jobs, mlp_all_, adams_);
      const nn::Mlp& ref = *mlp_all_.front();
      for (const nn::Mlp* n : mlp_all_) {
        if (!n->same_architecture(ref)) return false;
      }
      run_epochs(jobs, begin, end, tcfg, /*sequence=*/false, [&] {
        select(mlp_all_, part_, mlp_nets_);
        mlp_.train_batch(mlp_nets_, slices_, slab_xs_.front(), slab_y_,
                         nn::LossKind::kMae, opts_, batch_losses_);
      });
      return true;
    }
    default:
      return false;  // closed-form methods have no minibatch loop
  }
}

void FusedForecastTrainer::run_epochs(std::span<FusedTrainJob> jobs,
                                      std::size_t begin, std::size_t end,
                                      const TrainConfig& tcfg, bool sequence,
                                      const std::function<void()>& step) {
  // Per-job state of this call only — the shuffle orders and encoded
  // spans are the only things sized by the round's length, and they die
  // with the call.
  struct Member {
    data::WindowConfig wc;
    std::size_t samples = 0;
    std::size_t first_target = 0;
    std::vector<std::size_t> order;
    data::EncodedSpan span;  // every minute the job's rows read, encoded
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
    adams_[j]->set_learning_rate(tcfg.learning_rate);
    m.order.resize(m.samples);
    std::iota(m.order.begin(), m.order.end(), 0);
    m.span = data::EncodedSpan(*jobs[j].trace, m.wc, m.first_target,
                               m.samples);
    max_samples = std::max(max_samples, m.samples);
  }

  const data::WindowConfig& shape = members.front().wc;
  const std::size_t steps = sequence ? shape.window : 1;
  const std::size_t feat =
      sequence ? data::step_features(shape) : data::flat_features(shape);
  slab_xs_.resize(steps);
  xs_ptrs_.resize(steps);
  for (std::size_t t = 0; t < steps; ++t) xs_ptrs_[t] = &slab_xs_[t];

  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Member& m = members[j];
      if (m.samples == 0) continue;
      jobs[j].rng->shuffle(m.order);
      m.loss_sum = 0.0;
      m.batches = 0;
    }
    for (std::size_t ofs = 0; ofs < max_samples; ofs += tcfg.batch_size) {
      part_.clear();
      slices_.clear();
      opts_.clear();
      std::size_t rows = 0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::size_t n = members[j].samples;
        if (ofs >= n) continue;  // this job ran out of batches this epoch
        const std::size_t bs = std::min(tcfg.batch_size, n - ofs);
        part_.push_back(j);
        slices_.push_back({rows, bs});
        opts_.push_back(adams_[j]);
        rows += bs;
      }
      for (nn::Matrix& slab : slab_xs_) slab.reshape(rows, feat);
      slab_y_.reshape(rows, 1);
      // Gather each participant's shuffled samples from its span.
      for (std::size_t p = 0; p < part_.size(); ++p) {
        const Member& m = members[part_[p]];
        for (std::size_t i = 0; i < slices_[p].rows; ++i) {
          const std::size_t r = slices_[p].row_begin + i;
          const std::size_t t = m.first_target + m.order[ofs + i] * stride;
          if (sequence) {
            const std::size_t w0 = data::window_start(m.wc, t);
            for (std::size_t k = 0; k < steps; ++k) {
              m.span.step(w0 + k, slab_xs_[k].row(r).data());
            }
          } else {
            m.span.flat_row(t, slab_xs_.front().row(r).data());
          }
          slab_y_(r, 0) = m.span.at(t);
        }
      }
      batch_losses_.resize(part_.size());
      step();
      for (std::size_t p = 0; p < part_.size(); ++p) {
        members[part_[p]].loss_sum += batch_losses_[p];
        ++members[part_[p]].batches;
      }
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
  FusedForecastTrainer trainer;
  if (!trainer.train({&job, 1}, begin, end, cfg)) {
    throw std::logic_error("train_group_of_one: method has no minibatch loop");
  }
  return job.loss;
}

std::size_t FusedForecastTrainer::retained_bytes() const noexcept {
  std::size_t bytes = slab_y_.capacity() * sizeof(double);
  for (const nn::Matrix& slab : slab_xs_) {
    bytes += slab.capacity() * sizeof(double);
  }
  return bytes + capacity_bytes(slab_xs_) + capacity_bytes(xs_ptrs_) +
         capacity_bytes(part_) + capacity_bytes(slices_) +
         capacity_bytes(opts_) + capacity_bytes(batch_losses_) +
         capacity_bytes(adams_) + capacity_bytes(lstm_all_) +
         capacity_bytes(lstm_nets_) + capacity_bytes(gru_all_) +
         capacity_bytes(gru_nets_) + capacity_bytes(mlp_all_) +
         capacity_bytes(mlp_nets_);
}

}  // namespace pfdrl::forecast
