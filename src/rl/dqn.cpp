#include "rl/dqn.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pfdrl::rl {

namespace {
std::vector<std::size_t> make_dims(const DqnConfig& cfg) {
  std::vector<std::size_t> dims;
  dims.push_back(cfg.state_dim);
  dims.insert(dims.end(), cfg.hidden.begin(), cfg.hidden.end());
  dims.push_back(cfg.num_actions);
  return dims;
}

nn::Mlp initial_network(const DqnConfig& cfg) {
  util::Rng rng(cfg.seed);
  return nn::Mlp(make_dims(cfg), nn::Activation::kRelu,
                 nn::Activation::kIdentity, nn::InitScheme::kHeNormal, rng);
}
}  // namespace

DqnAgent::DqnAgent(const DqnConfig& cfg)
    : DqnAgent(cfg, initial_network(cfg)) {}

DqnAgent::DqnAgent(const DqnConfig& cfg, const nn::Mlp& initial)
    : cfg_(cfg),
      rng_(cfg.exploration_seed != 0 ? cfg.exploration_seed : cfg.seed),
      net_(initial),
      target_(initial),  // the target starts as a copy of the online net
      opt_(cfg.learning_rate),
      replay_(cfg.replay_capacity) {
  if (initial.dims() != make_dims(cfg)) {
    throw std::invalid_argument(
        "DqnAgent: initial network does not match the config's dims");
  }
}

double DqnAgent::epsilon() const noexcept {
  if (act_steps_ >= cfg_.epsilon_decay_steps) return cfg_.epsilon_end;
  const double frac = static_cast<double>(act_steps_) /
                      static_cast<double>(cfg_.epsilon_decay_steps);
  return cfg_.epsilon_start + frac * (cfg_.epsilon_end - cfg_.epsilon_start);
}

int DqnAgent::act(std::span<const double> state) {
  const double eps = epsilon();
  ++act_steps_;
  if (rng_.uniform() < eps) {
    return static_cast<int>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cfg_.num_actions) - 1));
  }
  return act_greedy(state);
}

std::span<const double> DqnAgent::q_row(std::span<const double> state) const {
  assert(state.size() == cfg_.state_dim);
  ws_.reset();
  nn::Matrix& x = ws_.take(1, cfg_.state_dim);
  std::copy(state.begin(), state.end(), x.row(0).begin());
  return net_.predict(x, ws_).row(0);
}

int DqnAgent::act_greedy(std::span<const double> state) const {
  const auto q = q_row(state);
  return static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
}

void DqnAgent::act_greedy_batch(const nn::Matrix& states, nn::Workspace& ws,
                                std::span<int> out) const {
  assert(states.cols() == cfg_.state_dim && out.size() == states.rows());
  ws.reset();
  const nn::Matrix& q = net_.predict(states, ws);
  for (std::size_t r = 0; r < q.rows(); ++r) {
    const auto row = q.row(r);
    out[r] = static_cast<int>(std::max_element(row.begin(), row.end()) -
                              row.begin());
  }
}

std::vector<double> DqnAgent::q_values(std::span<const double> state) const {
  std::vector<double> out(cfg_.num_actions);
  q_values_into(state, out);
  return out;
}

void DqnAgent::q_values_into(std::span<const double> state,
                             std::span<double> out) const {
  assert(out.size() == cfg_.num_actions);
  const auto q = q_row(state);
  std::copy(q.begin(), q.end(), out.begin());
}

void DqnAgent::remember(Transition t) {
  const std::size_t slot = replay_.push(std::move(t));
  if (slot == boot_version_.size()) {
    boot_version_.push_back(0);
    boot_q_.resize(boot_q_.size() + cfg_.num_actions);
  } else {
    boot_version_[slot] = 0;
  }
}

void DqnAgent::set_network_parameters(std::span<const double> values) {
  net_.set_parameters(values);
  sync_target();
  opt_.reset();
}

void DqnAgent::notify_external_parameter_update() {
  // Deliberately neither syncs the target network nor resets Adam.
  // Federated peers share their init and are re-averaged every round, so
  // the averaged weights stay close to the local ones: the Adam moments
  // remain valid, and the target network must keep following its own
  // refresh schedule (every target_replace_every learn steps) — forcing
  // a sync at every broadcast turns the TD targets into moving targets
  // and measurably slowed early federated learning.
}

void DqnAgent::sync_target() {
  target_.set_parameters(net_.parameters());
  ++target_version_;
}

DqnAgentState DqnAgent::capture_state() const {
  DqnAgentState state;
  const auto online = net_.parameters();
  const auto target = target_.parameters();
  state.online_params.assign(online.begin(), online.end());
  state.target_params.assign(target.begin(), target.end());
  state.optimizer = opt_.capture_state();
  state.replay = replay_.capture_state();
  state.rng = rng_.state();
  state.act_steps = act_steps_;
  state.learn_steps = learn_steps_;
  return state;
}

void DqnAgent::restore_state(const DqnAgentState& state) {
  if (state.online_params.size() != net_.parameters().size() ||
      state.target_params.size() != target_.parameters().size()) {
    throw std::invalid_argument("DqnAgent: snapshot parameter size mismatch");
  }
  net_.set_parameters(state.online_params);
  target_.set_parameters(state.target_params);
  opt_.restore_state(state.optimizer);
  replay_.restore_state(state.replay);
  ++target_version_;
  boot_version_.assign(replay_.size(), 0);
  boot_q_.assign(replay_.size() * cfg_.num_actions, 0.0);
  rng_.restore(state.rng);
  act_steps_ = state.act_steps;
  learn_steps_ = state.learn_steps;
}

}  // namespace pfdrl::rl
