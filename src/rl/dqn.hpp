// Deep Q-Network agent (paper §3.3.1). The Q-network follows the paper's
// architecture — 8 hidden layers of 100 ReLU neurons, 3 outputs (one
// Q-value per device mode) — and hyperparameters: learning rate 1e-3,
// discount 0.9, replay capacity 2000, target-network refresh every 100
// learn steps, Huber TD loss.
//
// The network is an nn::Mlp, so its flat parameter buffer and per-layer
// offsets are directly usable by the PFDRL base/personalization split.
// The agent acts and remembers; its learning step (Algorithm 2's replay
// minibatch, Huber TD loss, Adam, target refresh) runs through
// rl::FusedDqnLearner, one agent or a whole group at a time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace pfdrl::rl {

struct DqnConfig {
  std::size_t state_dim = 8;
  std::size_t num_actions = 3;
  /// Hidden architecture; the paper's is eight layers of 100.
  std::vector<std::size_t> hidden = {100, 100, 100, 100, 100, 100, 100, 100};
  double learning_rate = 1e-3;
  double discount = 0.9;  // the paper's "discounted rate"
  std::size_t replay_capacity = 2000;
  std::size_t target_replace_every = 100;
  std::size_t batch_size = 32;
  /// Double DQN (van Hasselt et al.): select the bootstrap action with
  /// the online network, evaluate it with the target network. Reduces
  /// Q-value overestimation; off by default to match the paper's DQN.
  bool double_dqn = false;
  /// Linear epsilon decay from start to end over `epsilon_decay_steps`.
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 2000;
  /// Seeds weight initialization. Federated peers must share this (the
  /// paper's "same default model" requirement).
  std::uint64_t seed = 11;
  /// Seeds exploration / replay sampling; 0 means "use `seed`". Federated
  /// peers should differ here so their trajectories decorrelate.
  std::uint64_t exploration_seed = 0;
};

/// Everything a warm restart needs to continue this agent bitwise:
/// both networks' flat parameters (online and target drift apart between
/// refreshes), Adam moments, the replay ring, the exploration RNG, and
/// the two step counters (epsilon derives from act_steps; the target
/// refresh schedule from learn_steps).
struct DqnAgentState {
  std::vector<double> online_params;
  std::vector<double> target_params;
  nn::AdamState optimizer;
  ReplayBufferState replay;
  util::RngState rng;
  std::uint64_t act_steps = 0;
  std::uint64_t learn_steps = 0;
};

class DqnAgent {
 public:
  /// An agent whose online network is drawn from cfg.seed (He-normal
  /// ReLU layers, identity head); the target starts as its copy.
  explicit DqnAgent(const DqnConfig& cfg);
  /// An agent whose online and target networks start as copies of
  /// `initial`. Given the network() of an untrained agent with the same
  /// cfg.seed it is bitwise DqnAgent(cfg), so homologous agents share
  /// one draw. Throws std::invalid_argument unless `initial` has cfg's
  /// dims.
  DqnAgent(const DqnConfig& cfg, const nn::Mlp& initial);

  [[nodiscard]] const DqnConfig& config() const noexcept { return cfg_; }

  /// Epsilon-greedy action for `state` (advances the exploration
  /// schedule). Steady-state calls are allocation-free: the forward pass
  /// runs through the agent's nn::Workspace arena.
  int act(std::span<const double> state);
  /// Greedy action (evaluation policy; no exploration, no schedule).
  [[nodiscard]] int act_greedy(std::span<const double> state) const;
  /// Greedy actions for a batch of states, one per row of `states`,
  /// through one Mlp::predict in the caller's workspace `ws` (reset on
  /// entry). Never the agent's own arena: a day of evaluation rows kept
  /// alive in every agent would multiply peak memory. The Q-network is
  /// ReLU layers plus an identity head, so out[r] equals
  /// act_greedy(states.row(r)) bit for bit.
  void act_greedy_batch(const nn::Matrix& states, nn::Workspace& ws,
                        std::span<int> out) const;
  /// Q-values for a state (diagnostics/tests).
  [[nodiscard]] std::vector<double> q_values(
      std::span<const double> state) const;
  /// Allocation-free variant: writes num_actions Q-values into `out`.
  void q_values_into(std::span<const double> state,
                     std::span<double> out) const;

  /// Store a transition in the replay ring (invalidates the slot's
  /// cached bootstrap row).
  void remember(Transition t);
  [[nodiscard]] const ReplayBuffer& replay() const noexcept { return replay_; }

  /// Current exploration rate.
  [[nodiscard]] double epsilon() const noexcept;
  [[nodiscard]] std::uint64_t learn_steps() const noexcept {
    return learn_steps_;
  }

  /// Online network access for federated parameter exchange. The PFDRL
  /// split uses the Mlp's per-layer offsets.
  [[nodiscard]] nn::Mlp& network() noexcept { return net_; }
  [[nodiscard]] const nn::Mlp& network() const noexcept { return net_; }
  /// Replace online parameters wholesale (checkpoint restore): syncs the
  /// target network and resets optimizer moments.
  void set_network_parameters(std::span<const double> values);
  /// Call after mutating network() parameters in place through federated
  /// averaging. Intentionally keeps both the Adam moments and the target
  /// network's own refresh schedule (see dqn.cpp for why).
  void notify_external_parameter_update();
  /// Copy online weights into the target network (exposed for tests).
  /// Starts a new target version: every cached bootstrap row goes stale.
  void sync_target();

  /// Deep-copy snapshot for warm-restart persistence.
  [[nodiscard]] DqnAgentState capture_state() const;
  /// Restore a snapshot. Unlike set_network_parameters this keeps the
  /// captured target network and Adam moments instead of resetting them —
  /// the restored agent must continue learning bitwise, not cold-start
  /// its schedule. Throws std::invalid_argument on shape mismatch.
  void restore_state(const DqnAgentState& state);

 private:
  // Learning runs through rl::FusedDqnLearner (rl/fused.hpp); an agent
  // that learns alone is a group of one. The learner owns the learning
  // step, so it reads and writes the private state below.
  friend class FusedDqnLearner;

  /// Single-state forward through the workspace; returns the Q-row, which
  /// lives in ws_ until the next q_row() call.
  [[nodiscard]] std::span<const double> q_row(
      std::span<const double> state) const;

  DqnConfig cfg_;
  util::Rng rng_;
  nn::Mlp net_;
  nn::Mlp target_;
  nn::Adam opt_;
  ReplayBuffer replay_;
  std::uint64_t act_steps_ = 0;
  std::uint64_t learn_steps_ = 0;
  // Inference scratch. The workspace keeps its heap blocks across calls,
  // so the steady-state act path stops allocating once warm. Mutable:
  // taking scratch does not change the agent's observable state.
  mutable nn::Workspace ws_;
  // The learner's sampled minibatch and its replay slots (capacity
  // reused across steps).
  std::vector<const Transition*> batch_;
  std::vector<std::size_t> batch_slots_;
  // Target bootstrap cache, read and written by FusedDqnLearner only.
  // Per replay slot: the target network's Q row for the slot's
  // next_state (boot_q_, num_actions values per slot) and the target
  // version it was computed under (boot_version_; 0 = never). A row is
  // valid while its version equals target_version_, which sync_target()
  // and restore_state() advance; writing a slot resets its version. Both
  // grow with the filled ring, never to replay_capacity up front. Derived
  // state: snapshots do not carry it.
  std::vector<double> boot_q_;
  std::vector<std::uint64_t> boot_version_;
  std::uint64_t target_version_ = 1;
};

}  // namespace pfdrl::rl
