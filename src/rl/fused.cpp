#include "rl/fused.hpp"

#include <algorithm>
#include <cassert>

#include "nn/loss.hpp"

namespace pfdrl::rl {

bool FusedDqnLearner::learn(std::span<DqnAgent* const> agents,
                            std::span<double> losses) {
  assert(agents.size() == losses.size());
  std::fill(losses.begin(), losses.end(), 0.0);
  if (agents.empty()) return true;

  // Fusability: the slab shapes and the shared forward passes require
  // identical dims, batch sizes, bootstrap mode, and architectures.
  const DqnAgent& ref = *agents.front();
  for (const DqnAgent* a : agents) {
    if (a->cfg_.state_dim != ref.cfg_.state_dim ||
        a->cfg_.num_actions != ref.cfg_.num_actions ||
        a->cfg_.batch_size != ref.cfg_.batch_size ||
        a->cfg_.double_dqn != ref.cfg_.double_dqn ||
        !a->net_.same_architecture(ref.net_)) {
      return false;
    }
  }

  // Warm-up gate before any RNG use.
  active_.clear();
  for (std::size_t i = 0; i < agents.size(); ++i) {
    if (agents[i]->replay_.size() >= agents[i]->cfg_.batch_size) {
      active_.push_back(i);
    }
  }
  if (active_.empty()) return true;

  const std::size_t bs = ref.cfg_.batch_size;
  const std::size_t state_dim = ref.cfg_.state_dim;
  const std::size_t num_actions = ref.cfg_.num_actions;
  const std::size_t rows = active_.size() * bs;

  // Sample each active agent's minibatch (its own RNG, group order) and
  // gather the transitions into the home-major slabs. A sampled slot
  // whose cached bootstrap row is current copies it into q_next_ (a
  // hit); the others queue their next_state in the miss slab, one slice
  // per agent, for the target pass.
  const bool double_dqn = ref.cfg_.double_dqn;
  states_.reshape(rows, state_dim);  // fully overwritten below
  if (double_dqn) next_states_.reshape(rows, state_dim);
  q_next_.reshape(rows, num_actions);  // hits below, misses after the pass
  miss_states_.reshape(rows, state_dim);  // first `misses` rows used
  slices_.clear();
  online_nets_.clear();
  target_nets_.clear();
  miss_slices_.clear();
  miss_rows_.clear();
  std::size_t row = 0;
  std::size_t misses = 0;
  for (const std::size_t idx : active_) {
    DqnAgent& a = *agents[idx];
    a.replay_.sample_into(bs, a.rng_, a.batch_, &slots_);
    const std::size_t miss_begin = misses;
    for (std::size_t i = 0; i < bs; ++i) {
      const Transition& tr = *a.batch_[i];
      std::copy(tr.state.begin(), tr.state.end(),
                states_.row(row + i).begin());
      if (double_dqn) {
        std::copy(tr.next_state.begin(), tr.next_state.end(),
                  next_states_.row(row + i).begin());
      }
      const std::size_t slot = slots_[i];
      if (a.boot_version_[slot] == a.target_version_) {
        const double* cached = a.boot_q_.data() + slot * num_actions;
        std::copy(cached, cached + num_actions, q_next_.row(row + i).begin());
      } else {
        std::copy(tr.next_state.begin(), tr.next_state.end(),
                  miss_states_.row(misses).begin());
        miss_rows_.push_back({&a, row + i, slot});
        ++misses;
      }
    }
    if (misses > miss_begin) {
      miss_slices_.push_back({miss_begin, misses - miss_begin});
      target_nets_.push_back(&a.target_);
    }
    slices_.push_back({row, bs});
    online_nets_.push_back(&a.net_);
    row += bs;
  }
  cache_hits_ += rows - misses;
  cache_misses_ += misses;

  // Target bootstrap over the stale rows only. A row's forward never
  // depends on its position in the slab (dense_forward_slice), so each
  // result is bitwise the row a pass over the agent's full batch would
  // compute; it lands in q_next_ and in the agent's cache under the
  // current target version.
  if (misses > 0) {
    const nn::Matrix& q_miss =
        target_fwd_.forward(target_nets_, miss_slices_, miss_states_);
    for (std::size_t r = 0; r < misses; ++r) {
      const MissRow& miss = miss_rows_[r];
      DqnAgent& a = *miss.agent;
      const auto q = q_miss.row(r);
      std::copy(q.begin(), q.end(), q_next_.row(miss.row).begin());
      std::copy(q.begin(), q.end(),
                a.boot_q_.begin() +
                    static_cast<std::ptrdiff_t>(miss.slot * num_actions));
      a.boot_version_[miss.slot] = a.target_version_;
    }
  }
  const nn::Matrix& q_next = q_next_;
  const nn::Matrix* q_next_online =
      double_dqn ? &online_next_.forward(online_nets_, slices_, next_states_)
                 : nullptr;
  const nn::Matrix& q_pred = online_.forward(online_nets_, slices_, states_);

  // Per-row Huber TD gradients, only on each row's taken action.
  grad_.reshape(rows, num_actions);
  grad_.zero();
  const double inv_bs = 1.0 / static_cast<double>(bs);
  for (std::size_t m = 0; m < active_.size(); ++m) {
    DqnAgent& a = *agents[active_[m]];
    const std::size_t r0 = slices_[m].row_begin;
    double loss = 0.0;
    for (std::size_t i = 0; i < bs; ++i) {
      const std::size_t r = r0 + i;
      double max_next;
      if (q_next_online != nullptr) {
        const nn::Matrix& q_online = *q_next_online;
        std::size_t best = 0;
        for (std::size_t act = 1; act < num_actions; ++act) {
          if (q_online(r, act) > q_online(r, best)) best = act;
        }
        max_next = q_next(r, best);
      } else {
        max_next = q_next(r, 0);
        for (std::size_t act = 1; act < num_actions; ++act) {
          max_next = std::max(max_next, q_next(r, act));
        }
      }
      const double target =
          a.batch_[i]->reward +
          (a.batch_[i]->terminal ? 0.0 : a.cfg_.discount * max_next);
      const auto action = static_cast<std::size_t>(a.batch_[i]->action);
      const double td_error = q_pred(r, action) - target;
      loss += nn::huber(td_error) * inv_bs;
      grad_(r, action) = nn::huber_grad(td_error) * inv_bs;
    }
    losses[active_[m]] = loss;
  }

  // Scatter: per-agent gradient accumulation through the shared
  // backward, then each agent's own Adam step and target schedule.
  for (const std::size_t idx : active_) agents[idx]->net_.zero_grad();
  online_.backward(online_nets_, slices_, grad_);
  for (const std::size_t idx : active_) {
    DqnAgent& a = *agents[idx];
    a.opt_.step(a.net_.parameters(), a.net_.gradients());
    ++a.learn_steps_;
    if (a.learn_steps_ % a.cfg_.target_replace_every == 0) a.sync_target();
  }

  nn::note_fused_batch(active_.size(), rows);
  return true;
}

}  // namespace pfdrl::rl
