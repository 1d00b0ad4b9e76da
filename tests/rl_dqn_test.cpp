#include "rl/dqn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/workspace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::rl {
namespace {

DqnConfig small_config() {
  DqnConfig cfg;
  cfg.state_dim = 3;
  cfg.num_actions = 3;
  cfg.hidden = {16, 16};
  cfg.replay_capacity = 256;
  cfg.batch_size = 16;
  cfg.target_replace_every = 10;
  cfg.epsilon_decay_steps = 100;
  cfg.seed = 5;
  return cfg;
}

TEST(Dqn, QValuesShape) {
  DqnAgent agent(small_config());
  const auto q = agent.q_values(std::vector<double>{0.1, 0.2, 0.3});
  EXPECT_EQ(q.size(), 3u);
}

TEST(Dqn, GreedyIsArgmax) {
  DqnAgent agent(small_config());
  const std::vector<double> state = {0.5, -0.5, 1.0};
  const auto q = agent.q_values(state);
  const int greedy = agent.act_greedy(state);
  const auto best =
      static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
  EXPECT_EQ(greedy, best);
}

TEST(Dqn, EpsilonSchedule) {
  auto cfg = small_config();
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.1;
  cfg.epsilon_decay_steps = 10;
  DqnAgent agent(cfg);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  const std::vector<double> state = {0, 0, 0};
  for (int i = 0; i < 5; ++i) agent.act(state);
  EXPECT_NEAR(agent.epsilon(), 0.55, 1e-12);
  for (int i = 0; i < 20; ++i) agent.act(state);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);
}

TEST(Dqn, LearnNoOpUntilBatchAvailable) {
  DqnAgent agent(small_config());
  EXPECT_EQ(agent.learn(), 0.0);
  EXPECT_EQ(agent.learn_steps(), 0u);
}

TEST(Dqn, TargetSyncSchedule) {
  auto cfg = small_config();
  cfg.target_replace_every = 3;
  DqnAgent agent(cfg);
  for (int i = 0; i < 20; ++i) {
    Transition t;
    t.state = {0.1, 0.2, 0.3};
    t.action = i % 3;
    t.reward = 1.0;
    t.next_state = {0.2, 0.3, 0.4};
    agent.remember(t);
  }
  for (int i = 0; i < 7; ++i) agent.learn();
  EXPECT_EQ(agent.learn_steps(), 7u);
}

TEST(Dqn, SetNetworkParametersRoundTrip) {
  DqnAgent agent(small_config());
  std::vector<double> values(agent.network().parameter_count(), 0.25);
  agent.set_network_parameters(values);
  for (double v : agent.network().parameters()) EXPECT_EQ(v, 0.25);
}

TEST(Dqn, SameSeedSameInit) {
  DqnAgent a(small_config());
  DqnAgent b(small_config());
  const auto pa = a.network().parameters();
  const auto pb = b.network().parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
}

TEST(Dqn, ExplorationSeedDecorrelatesActions) {
  auto cfg_a = small_config();
  auto cfg_b = small_config();
  cfg_b.exploration_seed = 999;
  DqnAgent a(cfg_a);
  DqnAgent b(cfg_b);
  const std::vector<double> state = {0, 0, 0};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.act(state) == b.act(state)) ++same;
  }
  EXPECT_LT(same, 75);  // epsilon = 1 early: actions mostly random
}

TEST(Dqn, LearnsContextualBandit) {
  // Reward depends only on matching action to state argmax: the agent
  // must learn the mapping within a few hundred steps.
  auto cfg = small_config();
  cfg.discount = 0.0;  // bandit
  cfg.epsilon_decay_steps = 500;
  cfg.epsilon_end = 0.05;
  cfg.learning_rate = 3e-3;
  DqnAgent agent(cfg);
  util::Rng rng(3);

  for (int step = 0; step < 1500; ++step) {
    std::vector<double> state(3);
    for (double& s : state) s = rng.uniform();
    const int best = static_cast<int>(
        std::max_element(state.begin(), state.end()) - state.begin());
    const int action = agent.act(state);
    Transition t;
    t.state = state;
    t.action = action;
    t.reward = action == best ? 1.0 : -1.0;
    t.next_state = state;
    t.terminal = true;
    agent.remember(std::move(t));
    agent.learn();
  }

  int correct = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    std::vector<double> state(3);
    for (double& s : state) s = rng.uniform();
    const int best = static_cast<int>(
        std::max_element(state.begin(), state.end()) - state.begin());
    if (agent.act_greedy(state) == best) ++correct;
  }
  EXPECT_GT(correct, trials * 3 / 4);
}

TEST(Dqn, DoubleDqnLearnsBanditToo) {
  auto cfg = small_config();
  cfg.double_dqn = true;
  cfg.discount = 0.0;
  cfg.epsilon_decay_steps = 500;
  cfg.epsilon_end = 0.05;
  cfg.learning_rate = 3e-3;
  DqnAgent agent(cfg);
  util::Rng rng(4);
  for (int step = 0; step < 1500; ++step) {
    std::vector<double> state(3);
    for (double& s : state) s = rng.uniform();
    const int best = static_cast<int>(
        std::max_element(state.begin(), state.end()) - state.begin());
    const int action = agent.act(state);
    Transition t;
    t.state = state;
    t.action = action;
    t.reward = action == best ? 1.0 : -1.0;
    t.next_state = state;
    t.terminal = true;
    agent.remember(std::move(t));
    agent.learn();
  }
  int correct = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> state(3);
    for (double& s : state) s = rng.uniform();
    const int best = static_cast<int>(
        std::max_element(state.begin(), state.end()) - state.begin());
    if (agent.act_greedy(state) == best) ++correct;
  }
  EXPECT_GT(correct, 225);
}

TEST(Dqn, DoubleDqnChangesLearningTrajectory) {
  auto cfg_a = small_config();
  auto cfg_b = small_config();
  cfg_b.double_dqn = true;
  DqnAgent a(cfg_a);
  DqnAgent b(cfg_b);
  util::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    Transition t;
    t.state = {rng.uniform(), rng.uniform(), rng.uniform()};
    t.action = static_cast<int>(rng.uniform_int(0, 2));
    t.reward = rng.uniform(-1, 1);
    t.next_state = {rng.uniform(), rng.uniform(), rng.uniform()};
    a.remember(t);
    b.remember(t);
  }
  for (int i = 0; i < 30; ++i) {
    a.learn();
    b.learn();
  }
  // Non-terminal transitions bootstrap differently under double DQN.
  const auto pa = a.network().parameters();
  const auto pb = b.network().parameters();
  bool any_diff = false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i] != pb[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Dqn, PaperDefaultsEncoded) {
  const DqnConfig cfg;
  EXPECT_EQ(cfg.hidden, (std::vector<std::size_t>(8, 100)));
  EXPECT_DOUBLE_EQ(cfg.learning_rate, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.discount, 0.9);
  EXPECT_EQ(cfg.replay_capacity, 2000u);
  EXPECT_EQ(cfg.target_replace_every, 100u);
  EXPECT_EQ(cfg.num_actions, 3u);
}

TEST(Dqn, NetworkExposesPaperArchitecture) {
  DqnConfig cfg;
  cfg.state_dim = 5;
  DqnAgent agent(cfg);
  // 8 hidden layers + output = 9 dense layers; hidden width 100.
  EXPECT_EQ(agent.network().num_layers(), 9u);
  EXPECT_EQ(agent.network().dims()[1], 100u);
  EXPECT_EQ(agent.network().output_dim(), 3u);
}

TEST(Dqn, QValuesIntoMatchesQValues) {
  DqnAgent agent(small_config());
  const std::vector<double> state = {0.3, -0.7, 0.2};
  const auto expected = agent.q_values(state);
  std::array<double, 3> got{};
  agent.q_values_into(state, got);
  for (std::size_t a = 0; a < expected.size(); ++a) {
    EXPECT_EQ(got[a], expected[a]);
  }
}

// The per-decision inference path must stop allocating once the agent's
// workspace is warm — same style of pin as the exchange-engine
// payload_copies test: the process-wide counter must not move across a
// steady-state burst.
TEST(Dqn, ActPathAllocationFreeSteadyState) {
  DqnAgent agent(small_config());
  const std::vector<double> state = {0.1, 0.4, -0.2};
  std::array<double, 3> q{};
  // Warm-up: first calls size the workspace slots.
  (void)agent.act_greedy(state);
  agent.q_values_into(state, q);
  const std::uint64_t allocs = nn::Workspace::total_allocations();
  for (int i = 0; i < 500; ++i) {
    (void)agent.act_greedy(state);
    agent.q_values_into(state, q);
  }
  EXPECT_EQ(nn::Workspace::total_allocations(), allocs);
}

// Same pin for the paper-default architecture (8 x 100 ReLU): the depth
// of the net must not reintroduce per-call growth.
TEST(Dqn, ActPathAllocationFreePaperNet) {
  DqnAgent agent{DqnConfig{}};
  std::vector<double> state(DqnConfig{}.state_dim, 0.25);
  (void)agent.act_greedy(state);
  const std::uint64_t allocs = nn::Workspace::total_allocations();
  for (int i = 0; i < 50; ++i) (void)agent.act_greedy(state);
  EXPECT_EQ(nn::Workspace::total_allocations(), allocs);
}

// The learn path gets the same pin: once the replay is full and a few
// warm-up learn steps have sized the calling thread's scratch (the first
// step scores every row, so the target pass's rows are as many as they
// get), further learn steps must not grow any workspace arena.
TEST(Dqn, LearnPathAllocationFreeSteadyState) {
  DqnAgent agent(small_config());
  util::Rng rng(77);
  for (int i = 0; i < 64; ++i) {
    Transition t;
    t.state = {rng.normal(), rng.normal(), rng.normal()};
    t.action = i % 3;
    t.reward = rng.normal();
    t.next_state = {rng.normal(), rng.normal(), rng.normal()};
    agent.remember(t);
  }
  for (int i = 0; i < 4; ++i) agent.learn();  // warm the slots
  const std::uint64_t allocs = nn::Workspace::total_allocations();
  for (int i = 0; i < 200; ++i) agent.learn();
  EXPECT_EQ(nn::Workspace::total_allocations(), allocs);
}

// --- Warm-restart state capture ---------------------------------------

namespace {
/// Drive `agent` through n interleaved act/remember/learn steps with its
/// own trajectory RNG, so exploration, replay sampling and Adam all move.
void drive(DqnAgent& agent, util::Rng& rng, int steps) {
  for (int i = 0; i < steps; ++i) {
    std::vector<double> state = {rng.uniform(), rng.uniform(), rng.uniform()};
    const int action = agent.act(state);
    Transition t;
    t.state = state;
    t.action = action;
    t.reward = rng.uniform(-1, 1);
    t.next_state = {rng.uniform(), rng.uniform(), rng.uniform()};
    agent.remember(std::move(t));
    agent.learn();
  }
}
}  // namespace

// The core warm-restart property: a restored agent continues bitwise —
// identical actions (exploration RNG), identical losses (replay
// sampling + Adam moments) and identical parameters after further
// training.
TEST(Dqn, CaptureRestoreContinuesBitwise) {
  DqnAgent original(small_config());
  util::Rng traj(901);
  drive(original, traj, 120);  // past the first target refresh

  const DqnAgentState state = original.capture_state();
  DqnAgent restored(small_config());
  restored.restore_state(state);

  // Same trajectory stream for both from here on. The original's
  // bootstrap cache is warm, the restored agent's empty: the losses must
  // agree anyway.
  util::Rng traj_a(902), traj_b(902);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> s = {traj_a.uniform(), traj_a.uniform(),
                             traj_a.uniform()};
    std::vector<double> s2 = {traj_b.uniform(), traj_b.uniform(),
                              traj_b.uniform()};
    ASSERT_EQ(original.act(s), restored.act(s2)) << "step " << i;
    Transition ta;
    ta.state = s;
    ta.action = 0;
    ta.reward = 0.5;
    ta.next_state = s;
    Transition tb = ta;
    original.remember(std::move(ta));
    restored.remember(std::move(tb));
    ASSERT_EQ(original.learn(), restored.learn())
        << "step " << i;
  }
  EXPECT_EQ(original.epsilon(), restored.epsilon());
  EXPECT_EQ(original.learn_steps(), restored.learn_steps());
  const auto pa = original.network().parameters();
  const auto pb = restored.network().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
}

void expect_same_state(const DqnAgentState& a, const DqnAgentState& b) {
  EXPECT_EQ(a.online_params, b.online_params);
  EXPECT_EQ(a.target_params, b.target_params);
  EXPECT_EQ(a.optimizer.m, b.optimizer.m);
  EXPECT_EQ(a.optimizer.v, b.optimizer.v);
  EXPECT_EQ(a.optimizer.t, b.optimizer.t);
  EXPECT_EQ(a.replay.entries.size(), b.replay.entries.size());
  EXPECT_EQ(a.replay.next, b.replay.next);
  EXPECT_EQ(a.replay.total_pushed, b.replay.total_pushed);
  EXPECT_EQ(a.rng.s, b.rng.s);
  EXPECT_EQ(a.rng.seed, b.rng.seed);
  EXPECT_EQ(a.act_steps, b.act_steps);
  EXPECT_EQ(a.learn_steps, b.learn_steps);
}

// Homologous agents share one initial draw: an agent built from another
// untrained agent's network is the agent its config would draw, in its
// captured state and over act/remember/learn steps (past a target sync).
TEST(Dqn, InitialNetworkCtorMatchesSeedCtor) {
  auto cfg = small_config();
  cfg.batch_size = 4;
  cfg.target_replace_every = 3;
  cfg.exploration_seed = 77;
  DqnAgent drawn(cfg);
  DqnAgent copied(cfg, DqnAgent(cfg).network());
  expect_same_state(copied.capture_state(), drawn.capture_state());

  util::Rng traj(905);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> s = {traj.uniform(), traj.uniform(),
                                   traj.uniform()};
    const int action = drawn.act(s);
    ASSERT_EQ(copied.act(s), action) << "step " << i;
    Transition t;
    t.state = s;
    t.action = action;
    t.reward = traj.uniform(-1, 1);
    t.next_state = {traj.uniform(), traj.uniform(), traj.uniform()};
    Transition t2 = t;
    drawn.remember(std::move(t));
    copied.remember(std::move(t2));
    ASSERT_EQ(copied.learn(), drawn.learn())
        << "step " << i;
  }
  EXPECT_GE(drawn.learn_steps(), 6u);
  expect_same_state(copied.capture_state(), drawn.capture_state());

  auto wider = cfg;
  wider.hidden = {16, 17};
  EXPECT_THROW(DqnAgent(wider, drawn.network()), std::invalid_argument);
}

// restore_state must keep the captured target network and Adam moments;
// set_network_parameters (checkpoint-style restore) resets both. The
// two must therefore diverge after the same subsequent learn step.
TEST(Dqn, RestoreKeepsTargetAndAdamUnlikeSetNetworkParameters) {
  DqnAgent trained(small_config());
  util::Rng traj(903);
  drive(trained, traj, 60);  // online and target have drifted apart

  const DqnAgentState state = trained.capture_state();
  // The capture really holds two distinct networks.
  ASSERT_EQ(state.online_params.size(), state.target_params.size());
  bool nets_differ = false;
  for (std::size_t i = 0; i < state.online_params.size(); ++i) {
    if (state.online_params[i] != state.target_params[i]) nets_differ = true;
  }
  ASSERT_TRUE(nets_differ);

  DqnAgent warm(small_config());
  warm.restore_state(state);
  DqnAgent cold(small_config());
  cold.set_network_parameters(state.online_params);

  // Same online parameters either way...
  const auto pw = warm.network().parameters();
  const auto pc = cold.network().parameters();
  for (std::size_t i = 0; i < pw.size(); ++i) ASSERT_EQ(pw[i], pc[i]);

  // ...but the warm restore preserved the drifted target (cold synced
  // it), so identical learn batches produce different updates.
  util::Rng fill(904);
  for (int i = 0; i < 40; ++i) {
    Transition t;
    t.state = {fill.uniform(), fill.uniform(), fill.uniform()};
    t.action = i % 3;
    t.reward = fill.uniform(-1, 1);
    t.next_state = {fill.uniform(), fill.uniform(), fill.uniform()};
    Transition t2 = t;
    warm.remember(std::move(t));
    cold.remember(std::move(t2));
  }
  warm.learn();
  cold.learn();
  const auto aw = warm.network().parameters();
  const auto ac = cold.network().parameters();
  bool diverged = false;
  for (std::size_t i = 0; i < aw.size(); ++i) {
    if (aw[i] != ac[i]) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Dqn, RestoreRejectsShapeMismatch) {
  DqnAgent agent(small_config());
  DqnAgentState state = agent.capture_state();
  state.online_params.pop_back();
  EXPECT_THROW(agent.restore_state(state), std::invalid_argument);

  DqnAgentState state2 = agent.capture_state();
  state2.target_params.push_back(0.0);
  EXPECT_THROW(agent.restore_state(state2), std::invalid_argument);
}

// --- Lockstep learning (docs/fused_training.md) ----------------------

namespace {

Transition random_transition(util::Rng& fill) {
  Transition tr;
  tr.state = {fill.normal(), fill.normal(), fill.normal()};
  tr.action = static_cast<int>(fill.uniform_int(0, 2));
  tr.reward = fill.uniform(-1, 1);
  tr.next_state = {fill.normal(), fill.normal(), fill.normal()};
  tr.terminal = fill.uniform() < 0.1;
  return tr;
}

/// A group of agents with distinct seeds (distinct initial parameters
/// and replay-sampling streams) and distinct replay contents.
std::vector<std::unique_ptr<DqnAgent>> make_group(
    std::size_t n, bool double_dqn, int replay_fill,
    std::size_t replay_capacity = 256, std::size_t batch_size = 16) {
  std::vector<std::unique_ptr<DqnAgent>> agents;
  for (std::size_t i = 0; i < n; ++i) {
    auto cfg = small_config();
    cfg.seed = 50 + i;
    cfg.double_dqn = double_dqn;
    cfg.target_replace_every = 5;  // hit a few syncs within the test
    cfg.replay_capacity = replay_capacity;
    cfg.batch_size = batch_size;
    agents.push_back(std::make_unique<DqnAgent>(cfg));
    util::Rng fill(300 + i);
    for (int t = 0; t < replay_fill; ++t) {
      agents[i]->remember(random_transition(fill));
    }
  }
  return agents;
}

std::vector<DqnAgent*> pointers(
    const std::vector<std::unique_ptr<DqnAgent>>& agents) {
  std::vector<DqnAgent*> ptrs;
  for (const auto& a : agents) ptrs.push_back(a.get());
  return ptrs;
}

/// The uncached twin of one learn step: `agent` learns after a
/// capture_state()/restore_state() round trip, which advances its target
/// version and clears its bootstrap cache and changes nothing else — so
/// the target network scores every sampled row. Checks that every row
/// missed and returns the TD loss.
double learn_uncached(DqnAgent& agent) {
  agent.restore_state(agent.capture_state());
  const std::uint64_t hits = agent.cache_hits();
  const std::uint64_t misses = agent.cache_misses();
  const double loss = agent.learn();
  const std::size_t batch = agent.config().batch_size;
  const std::uint64_t rows = agent.replay().size() >= batch ? batch : 0;
  EXPECT_EQ(agent.cache_hits(), hits);
  EXPECT_EQ(agent.cache_misses() - misses, rows);
  return loss;
}

/// One lockstep learn tick, as the EMS rounds run it: every agent's
/// learn step as one pool task. Writes each agent's TD loss.
void learn_tick(const std::vector<DqnAgent*>& agents,
                std::vector<double>& losses) {
  util::ThreadPool::global().parallel_for(
      0, agents.size(), [&](std::size_t i) { losses[i] = agents[i]->learn(); });
}

/// Bootstrap-cache hits and misses summed over a group.
std::pair<std::uint64_t, std::uint64_t> cache_counts(
    const std::vector<DqnAgent*>& agents) {
  std::uint64_t hits = 0, misses = 0;
  for (const DqnAgent* a : agents) {
    hits += a->cache_hits();
    misses += a->cache_misses();
  }
  return {hits, misses};
}

}  // namespace

// The lockstep contract: a learn tick over a group, its agents stepping
// concurrently on the pool, is bitwise one learn step per agent on its
// own — identical losses every step and identical parameters after many
// steps (replay sampling, Adam moments and target syncs all included).
// The twin group learns uncached (learn_uncached), so it is also the
// oracle for the agents' bootstrap caches, exercised here across every
// event that must invalidate them: target syncs, pushes that wrap the
// ring (capacity 40, batch 32), restore_state() rewinding the agents
// mid-run, and set_network_parameters().
TEST(FusedDqn, LearnMatchesPerAgentBitwise) {
  constexpr std::size_t kAgents = 4;
  constexpr std::size_t kBatch = 32;
  constexpr int kSteps = 40;
  for (const bool double_dqn : {false, true}) {
    auto fused_group = make_group(kAgents, double_dqn, 36, 40, kBatch);
    auto twin_group = make_group(kAgents, double_dqn, 36, 40, kBatch);
    const auto ptrs = pointers(fused_group);
    const auto twin_ptrs = pointers(twin_group);
    std::vector<double> losses(ptrs.size(), -1.0);
    std::vector<DqnAgentState> fused_saved, twin_saved;
    util::Rng push_rng(17);
    const std::vector<double> reset_params(
        fused_group[0]->network().parameters().size(), 0.01);
    std::uint64_t prev_hits = 0, prev_misses = 0;
    for (int step = 0; step < kSteps; ++step) {
      // Every agent syncs its target after learn steps 5, 10, ...; the
      // rewind at step 22 (learn step 22, no sync) lands the agents back
      // on learn step 12, with three of their pushes undone.
      const bool after_sync =
          step > 0 && fused_group[0]->learn_steps() % 5 == 0;
      bool all_stale = step == 0 || after_sync;
      // One push per agent every third step: the 40-slot ring is full
      // at step 10 and overwrites its oldest slots from step 13 on.
      if (step % 3 == 1) {
        for (std::size_t i = 0; i < kAgents; ++i) {
          const Transition tr = random_transition(push_rng);
          fused_group[i]->remember(tr);
          twin_group[i]->remember(tr);
        }
      }
      if (step == 12) {
        for (std::size_t i = 0; i < kAgents; ++i) {
          fused_saved.push_back(fused_group[i]->capture_state());
          twin_saved.push_back(twin_group[i]->capture_state());
        }
      }
      if (step == 22) {  // rewind: replay, target and counters go back
        for (std::size_t i = 0; i < kAgents; ++i) {
          fused_group[i]->restore_state(fused_saved[i]);
          twin_group[i]->restore_state(twin_saved[i]);
        }
        all_stale = true;
      }
      if (step == 32) {
        fused_group[0]->set_network_parameters(reset_params);
        twin_group[0]->set_network_parameters(reset_params);
      }
      learn_tick(ptrs, losses);
      for (std::size_t i = 0; i < twin_group.size(); ++i) {
        ASSERT_EQ(losses[i], learn_uncached(*twin_group[i]))
            << "double_dqn=" << double_dqn << " step " << step << " agent "
            << i;
      }
      const auto [total_hits, total_misses] = cache_counts(ptrs);
      const std::uint64_t hits = total_hits - prev_hits;
      const std::uint64_t misses = total_misses - prev_misses;
      prev_hits = total_hits;
      prev_misses = total_misses;
      ASSERT_EQ(hits + misses, kAgents * kBatch) << "step " << step;
      if (all_stale) {
        EXPECT_EQ(misses, kAgents * kBatch) << "step " << step;
      }
      if (step == 22 || step == 32) {
        ASSERT_FALSE(after_sync);
      }
      if (step == 32) {  // agent 0 synced its target: its rows all miss
        EXPECT_GE(misses, kBatch);
        EXPECT_LT(misses, kAgents * kBatch);
      }
      if (step == 2 || step == 4) {  // repeat draws from a 36-slot ring
        EXPECT_GT(hits, 0u) << "step " << step;
      }
    }
    EXPECT_GT(prev_hits, prev_misses);
    EXPECT_EQ(cache_counts(twin_ptrs).first, 0u);
    for (std::size_t i = 0; i < twin_group.size(); ++i) {
      EXPECT_EQ(fused_group[i]->learn_steps(), twin_group[i]->learn_steps());
      EXPECT_EQ(fused_group[i]->replay().total_pushed(),
                twin_group[i]->replay().total_pushed());
      const auto pf = fused_group[i]->network().parameters();
      const auto pl = twin_group[i]->network().parameters();
      ASSERT_EQ(pf.size(), pl.size());
      for (std::size_t k = 0; k < pf.size(); ++k) {
        ASSERT_EQ(pf[k], pl[k])
            << "double_dqn=" << double_dqn << " agent " << i << " param " << k;
      }
    }
  }
}

// Agents whose replay is still below one batch are skipped: loss 0.0, no
// learn step, no RNG use — so the cold agent trains identically to its
// uncached twin, learning on its own, once it does warm up.
TEST(FusedDqn, ColdAgentSkippedWithoutRngUse) {
  auto fused_group = make_group(3, false, 64);
  auto twin_group = make_group(3, false, 64);
  // Rebuild agent 1 with an under-filled replay in both groups.
  auto cfg = small_config();
  cfg.seed = 51;
  fused_group[1] = std::make_unique<DqnAgent>(cfg);
  twin_group[1] = std::make_unique<DqnAgent>(cfg);
  const auto ptrs = pointers(fused_group);
  std::vector<double> losses(ptrs.size(), -1.0);
  learn_tick(ptrs, losses);
  EXPECT_EQ(losses[1], 0.0);
  EXPECT_EQ(fused_group[1]->learn_steps(), 0u);
  EXPECT_NE(losses[0], 0.0);
  // Warm the cold agent up and keep learning in lockstep: it must still
  // track its twin bitwise (its sampling RNG was never touched early).
  util::Rng fill(999);
  for (int t = 0; t < 32; ++t) {
    Transition tr;
    tr.state = {fill.normal(), fill.normal(), fill.normal()};
    tr.action = t % 3;
    tr.reward = fill.uniform(-1, 1);
    tr.next_state = {fill.normal(), fill.normal(), fill.normal()};
    Transition tr2 = tr;
    fused_group[1]->remember(std::move(tr));
    twin_group[1]->remember(std::move(tr2));
  }
  // Catch the twins up to the tick above.
  learn_uncached(*twin_group[0]);
  learn_uncached(*twin_group[2]);
  for (int step = 0; step < 6; ++step) {
    learn_tick(ptrs, losses);
    for (std::size_t i = 0; i < twin_group.size(); ++i) {
      ASSERT_EQ(losses[i], learn_uncached(*twin_group[i]))
          << "step " << step;
    }
  }
  const auto pf = fused_group[1]->network().parameters();
  const auto pl = twin_group[1]->network().parameters();
  for (std::size_t k = 0; k < pf.size(); ++k) ASSERT_EQ(pf[k], pl[k]);
}

}  // namespace
}  // namespace pfdrl::rl
