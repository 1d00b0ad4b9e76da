// Cross-home fused DQN learning (docs/fused_training.md).
//
// Every residence runs the same Q-network architecture, so one EMS learn
// tick across a group of homes is N identical tiny minibatches. The
// fused learner stacks the group's replay minibatches into home-major
// state/next-state slabs and drives them through three shared
// nn::FusedMlp passes (target bootstrap, optional double-DQN online
// bootstrap, online forward/backward) against each agent's own
// parameter bank, then scatters per-agent TD gradients back into each
// agent's own Adam state.
//
// This is the only DQN learning step: an agent that learns alone is a
// group of one.
//
// Determinism contract: a group of one is the per-home path. Per agent,
// the replay-not-full gate fires before any RNG use, sample_into
// consumes the agent's own RNG, every slab slice is bitwise the agent's
// rows alone (nn/fused.hpp), the TD target/Huber-gradient arithmetic is
// per-row, and clip-free zero_grad/backward/step/target-sync run per
// agent in group order. A target Q row comes from the agent's bootstrap
// cache when it was scored under the current target version, else from
// the target pass; both give the same bits. rl_dqn_test pins a cached
// group against an uncached twin learned in groups of one (each twin
// agent round-trips capture_state()/restore_state() before every step,
// which empties its cache).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/fused.hpp"
#include "nn/matrix.hpp"
#include "rl/dqn.hpp"

namespace pfdrl::rl {

/// Fused multi-agent DQN learner. One learn() call performs one DQN
/// learning step for every agent in the group, bitwise identical to
/// learning each agent in a group of one, in group order.
class FusedDqnLearner {
 public:
  /// Runs one fused learn step. `losses` is parallel to `agents` and
  /// receives each agent's TD loss (0.0 for agents whose replay buffer
  /// still holds less than one batch — those agents are skipped without
  /// touching their RNG or their learn-step count).
  ///
  /// Returns false — with no agent state touched — when the group is not
  /// fusable (mismatched state/action dims, batch sizes, double-DQN
  /// settings, or network architectures); the caller must split it into
  /// fusable groups (a group of one always fuses).
  bool learn(std::span<DqnAgent* const> agents, std::span<double> losses);

  /// Sampled rows whose target Q row came from an agent's bootstrap
  /// cache, and rows the target network had to score (cumulative over
  /// this learner's lifetime; exported as rl.target_cache_hits/misses).
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_;
  }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return cache_misses_;
  }

 private:
  // Shared forward engines. Separate instances because each caches its
  // own activation slabs: the target and double-DQN bootstrap passes
  // must not disturb the online pass's backward caches.
  nn::FusedMlp target_fwd_;
  nn::FusedMlp online_next_;
  nn::FusedMlp online_;
  // Capacity-reusing assembly buffers (steady-state learn() calls of a
  // stable group shape allocate nothing).
  nn::Matrix states_;
  nn::Matrix next_states_;  // double DQN only
  nn::Matrix miss_states_;  // next_states of the stale sampled rows
  nn::Matrix q_next_;       // target Q rows, cached or freshly scored
  nn::Matrix grad_;
  std::vector<std::size_t> active_;  // indices into `agents`
  std::vector<std::size_t> slots_;   // replay slots of one agent's batch
  std::vector<nn::Mlp*> online_nets_;
  std::vector<nn::FusedSlice> slices_;
  // The target pass: one slice of miss_states_ per agent with misses,
  // and for each miss row where its result goes.
  std::vector<nn::Mlp*> target_nets_;
  std::vector<nn::FusedSlice> miss_slices_;
  struct MissRow {
    DqnAgent* agent;
    std::size_t row;   // destination row of q_next_
    std::size_t slot;  // the agent's replay slot
  };
  std::vector<MissRow> miss_rows_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace pfdrl::rl
