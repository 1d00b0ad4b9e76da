#include "rl/fused.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "nn/fused.hpp"
#include "nn/loss.hpp"
#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::rl {

bool FusedDqnLearner::learn(std::span<DqnAgent* const> agents,
                            std::span<double> losses) {
  assert(agents.size() == losses.size());
  std::fill(losses.begin(), losses.end(), 0.0);
  if (agents.empty()) return true;

  // Fusability: one group shares dims, batch size, bootstrap mode and
  // architecture.
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

  // One task per active agent. An agent's step touches only its own
  // state, so the fan-out cannot change any agent's bits; the cache
  // counts are integers, summed in any order.
  std::atomic<std::uint64_t> hits{0};
  util::ThreadPool::global().parallel_for(0, active_.size(), [&](std::size_t m) {
    const std::size_t idx = active_[m];
    hits.fetch_add(learn_member(*agents[idx], losses[idx]),
                   std::memory_order_relaxed);
  });
  const std::size_t rows = active_.size() * ref.cfg_.batch_size;
  cache_hits_ += hits.load(std::memory_order_relaxed);
  cache_misses_ += rows - hits.load(std::memory_order_relaxed);
  nn::note_fused_batch(active_.size(), rows);
  return true;
}

std::size_t FusedDqnLearner::learn_member(DqnAgent& a, double& loss) {
  const std::size_t bs = a.cfg_.batch_size;
  const std::size_t state_dim = a.cfg_.state_dim;
  const std::size_t num_actions = a.cfg_.num_actions;
  const bool double_dqn = a.cfg_.double_dqn;

  // Every take has the same shape on every step of a configuration — the
  // target pass included, whose rows are the step's misses — so a warm
  // thread takes its slots at capacity.
  nn::Workspace& ws = nn::thread_scratch();
  ws.reset();
  const std::span<double> grads = ws.take_span(a.net_.parameter_count());
  std::fill(grads.begin(), grads.end(), 0.0);
  nn::Matrix& states = ws.take(bs, state_dim);
  nn::Matrix& next_states = ws.take(double_dqn ? bs : 0, state_dim);
  nn::Matrix& miss_states = ws.take(bs, state_dim);  // first `misses` rows
  nn::Matrix& q_next = ws.take(bs, num_actions);  // target Q rows
  nn::Matrix& grad_out = ws.take(bs, num_actions);

  // Sample the minibatch (the agent's own RNG) and copy its rows. A
  // sampled slot whose cached bootstrap row is current copies it into
  // q_next (a hit); the others queue their next_state for the target
  // pass.
  a.replay_.sample_into(bs, a.rng_, a.batch_, &a.batch_slots_);
  std::size_t misses = 0;
  for (std::size_t i = 0; i < bs; ++i) {
    const Transition& tr = *a.batch_[i];
    std::copy(tr.state.begin(), tr.state.end(), states.row(i).begin());
    if (double_dqn) {
      std::copy(tr.next_state.begin(), tr.next_state.end(),
                next_states.row(i).begin());
    }
    const std::size_t slot = a.batch_slots_[i];
    if (a.boot_version_[slot] == a.target_version_) {
      const double* cached = a.boot_q_.data() + slot * num_actions;
      std::copy(cached, cached + num_actions, q_next.row(i).begin());
    } else {
      std::copy(tr.next_state.begin(), tr.next_state.end(),
                miss_states.row(misses++).begin());
    }
  }

  // Target bootstrap over the stale rows only. A row's forward never
  // depends on the rows beside it (nn::mlp_forward), so each result is
  // bitwise the row a pass over the full batch would compute; it lands
  // in q_next and in the agent's cache. The versions advance only after
  // every miss is placed: a slot drawn twice stays a miss both times.
  const nn::Matrix& q_miss =
      *nn::mlp_forward(a.target_, miss_states, 0, misses, ws).out;
  std::size_t r = 0;
  for (std::size_t i = 0; i < bs; ++i) {
    const std::size_t slot = a.batch_slots_[i];
    if (a.boot_version_[slot] == a.target_version_) continue;  // a hit
    const auto q = q_miss.row(r++);
    std::copy(q.begin(), q.end(), q_next.row(i).begin());
    std::copy(q.begin(), q.end(),
              a.boot_q_.begin() +
                  static_cast<std::ptrdiff_t>(slot * num_actions));
  }
  for (const std::size_t slot : a.batch_slots_) {
    a.boot_version_[slot] = a.target_version_;
  }
  const nn::Matrix* q_next_online =
      double_dqn ? nn::mlp_forward(a.net_, next_states, 0, bs, ws).out
                 : nullptr;
  const nn::MlpTape online = nn::mlp_forward(a.net_, states, 0, bs, ws);
  const nn::Matrix& q_pred = *online.out;

  // Per-row Huber TD gradients, only on each row's taken action.
  grad_out.zero();
  const double inv_bs = 1.0 / static_cast<double>(bs);
  double td_loss = 0.0;
  for (std::size_t i = 0; i < bs; ++i) {
    double max_next;
    if (q_next_online != nullptr) {
      const nn::Matrix& q_online = *q_next_online;
      std::size_t best = 0;
      for (std::size_t act = 1; act < num_actions; ++act) {
        if (q_online(i, act) > q_online(i, best)) best = act;
      }
      max_next = q_next(i, best);
    } else {
      max_next = q_next(i, 0);
      for (std::size_t act = 1; act < num_actions; ++act) {
        max_next = std::max(max_next, q_next(i, act));
      }
    }
    const Transition& tr = *a.batch_[i];
    const double target =
        tr.reward + (tr.terminal ? 0.0 : a.cfg_.discount * max_next);
    const auto action = static_cast<std::size_t>(tr.action);
    const double td_error = q_pred(i, action) - target;
    td_loss += nn::huber(td_error) * inv_bs;
    grad_out(i, action) = nn::huber_grad(td_error) * inv_bs;
  }
  loss = td_loss;

  // Backward into the thread's gradient span, then the agent's own Adam
  // step and target schedule.
  nn::mlp_backward(a.net_, online, grad_out, grads, ws);
  a.opt_.step(a.net_.parameters(), grads);
  ++a.learn_steps_;
  if (a.learn_steps_ % a.cfg_.target_replace_every == 0) a.sync_target();
  return bs - misses;
}

}  // namespace pfdrl::rl
