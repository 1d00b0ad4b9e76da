// Cross-home fused DQN learning (docs/fused_training.md).
//
// Every residence runs the same Q-network architecture, so one EMS learn
// tick across a group of homes is N identical tiny minibatches. The
// fused learner runs each agent's whole learning step — minibatch
// sampling, target bootstrap (cached rows plus the target network's
// pass over the rest), optional double-DQN online bootstrap, online
// forward, Huber TD gradient, backward, Adam step and target schedule —
// as one pool task against the agent's own networks and optimizer, on
// the running thread's nn::thread_scratch(). The learner keeps no slab:
// its training memory is bounded by threads, not by the group.
//
// This is the only DQN learning step: an agent that learns alone is a
// group of one.
//
// Determinism contract: a group of one is the per-home path. Per agent,
// the replay-not-full gate fires before any RNG use, sample_into
// consumes the agent's own RNG, every pass is bitwise the agent's rows
// alone whatever thread runs it (nn/fused.hpp), the TD target/Huber-
// gradient arithmetic is per-row, and clip-free backward/step/target-
// sync touch the agent's state only. A target Q row comes from the
// agent's bootstrap cache when it was scored under the current target
// version, else from the target pass; both give the same bits.
// rl_dqn_test pins a cached group against an uncached twin learned in
// groups of one (each twin agent round-trips capture_state()/
// restore_state() before every step, which empties its cache).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/dqn.hpp"

namespace pfdrl::rl {

/// Fused multi-agent DQN learner. One learn() call performs one DQN
/// learning step for every agent in the group, bitwise identical to
/// learning each agent in a group of one.
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
  /// One agent's learning step on the calling thread's scratch; writes
  /// its TD loss and returns how many sampled rows hit the cache.
  static std::size_t learn_member(DqnAgent& a, double& loss);

  std::vector<std::size_t> active_;  // indices into `agents`
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace pfdrl::rl
