#include "core/federation.hpp"

#include <gtest/gtest.h>

#include "core/layer_split.hpp"
#include "obs/metrics.hpp"
#include "rl/dqn.hpp"

namespace pfdrl::core {
namespace {

rl::DqnConfig tiny_dqn(std::uint64_t weight_seed,
                       std::uint64_t exploration_seed) {
  rl::DqnConfig cfg;
  cfg.state_dim = 4;
  cfg.num_actions = 3;
  cfg.hidden = {8, 8, 8};
  cfg.replay_capacity = 64;
  cfg.batch_size = 8;
  cfg.seed = weight_seed;
  cfg.exploration_seed = exploration_seed;
  return cfg;
}

/// Train an agent a little so its weights move away from the shared init.
void jiggle(rl::DqnAgent& agent, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < 64; ++i) {
    rl::Transition t;
    t.state = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    t.action = static_cast<int>(rng.uniform_int(0, 2));
    t.reward = rng.uniform(-1, 1);
    t.next_state = t.state;
    t.terminal = true;
    agent.remember(std::move(t));
  }
  for (int i = 0; i < 10; ++i) agent.learn();
}

TEST(Federation, PrefixAveragedSuffixLocal) {
  rl::DqnAgent a(tiny_dqn(1, 100));
  rl::DqnAgent b(tiny_dqn(1, 200));
  jiggle(a, 1);
  jiggle(b, 2);

  const std::size_t share = 2;  // of 4 dense layers
  const std::size_t prefix = base_prefix_params(a.network(), share);

  // Expected base average, personal suffixes before the round.
  std::vector<double> expected(prefix);
  for (std::size_t i = 0; i < prefix; ++i) {
    expected[i] =
        (a.network().parameters()[i] + b.network().parameters()[i]) / 2.0;
  }
  const std::vector<double> a_suffix(a.network().parameters().begin() + prefix,
                                     a.network().parameters().end());
  const std::vector<double> b_suffix(b.network().parameters().begin() + prefix,
                                     b.network().parameters().end());

  DrlFederation fed(2, share, net::TopologyKind::kFullMesh);
  std::vector<FederatedDevice> devices = {{0, 7, &a}, {1, 7, &b}};
  fed.round(devices, 0);

  for (std::size_t i = 0; i < prefix; ++i) {
    ASSERT_NEAR(a.network().parameters()[i], expected[i], 1e-12);
    ASSERT_NEAR(b.network().parameters()[i], expected[i], 1e-12);
  }
  for (std::size_t i = 0; i < a_suffix.size(); ++i) {
    ASSERT_EQ(a.network().parameters()[prefix + i], a_suffix[i]);
    ASSERT_EQ(b.network().parameters()[prefix + i], b_suffix[i]);
  }
}

TEST(Federation, FullShareMakesAgentsIdentical) {
  rl::DqnAgent a(tiny_dqn(1, 100));
  rl::DqnAgent b(tiny_dqn(1, 200));
  jiggle(a, 3);
  jiggle(b, 4);
  const std::size_t layers = a.network().num_layers();
  DrlFederation fed(2, layers, net::TopologyKind::kStar);
  std::vector<FederatedDevice> devices = {{0, 7, &a}, {1, 7, &b}};
  fed.round(devices, 0);
  const auto pa = a.network().parameters();
  const auto pb = b.network().parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
}

TEST(Federation, DifferentTypesDoNotMix) {
  rl::DqnAgent a(tiny_dqn(1, 100));
  rl::DqnAgent b(tiny_dqn(1, 200));
  jiggle(a, 5);
  jiggle(b, 6);
  const std::vector<double> a_before(a.network().parameters().begin(),
                                     a.network().parameters().end());
  DrlFederation fed(2, 2, net::TopologyKind::kFullMesh);
  std::vector<FederatedDevice> devices = {{0, 1, &a}, {1, 2, &b}};
  fed.round(devices, 0);
  const auto pa = a.network().parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], a_before[i]);
}

TEST(Federation, SingleHomeNoOp) {
  rl::DqnAgent a(tiny_dqn(1, 100));
  jiggle(a, 7);
  const std::vector<double> before(a.network().parameters().begin(),
                                   a.network().parameters().end());
  DrlFederation fed(1, 2, net::TopologyKind::kFullMesh);
  std::vector<FederatedDevice> devices = {{0, 1, &a}};
  fed.round(devices, 0);
  const auto after = a.network().parameters();
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i], before[i]);
  }
}

TEST(Federation, SmallerAlphaCostsLessWire) {
  const auto run_with_share = [](std::size_t share) {
    rl::DqnAgent a(tiny_dqn(1, 100));
    rl::DqnAgent b(tiny_dqn(1, 200));
    DrlFederation fed(2, share, net::TopologyKind::kFullMesh);
    std::vector<FederatedDevice> devices = {{0, 7, &a}, {1, 7, &b}};
    fed.round(devices, 0);
    return fed.comm_stats().bytes_on_wire;
  };
  const auto small = run_with_share(1);
  const auto medium = run_with_share(2);
  const auto full = run_with_share(4);
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, full);
}

TEST(Federation, ThreePeersAverageTogether) {
  rl::DqnAgent a(tiny_dqn(1, 100));
  rl::DqnAgent b(tiny_dqn(1, 200));
  rl::DqnAgent c(tiny_dqn(1, 300));
  jiggle(a, 8);
  jiggle(b, 9);
  jiggle(c, 10);
  const std::size_t prefix = base_prefix_params(a.network(), 1);
  std::vector<double> expected(prefix);
  for (std::size_t i = 0; i < prefix; ++i) {
    expected[i] = (a.network().parameters()[i] + b.network().parameters()[i] +
                   c.network().parameters()[i]) /
                  3.0;
  }
  DrlFederation fed(3, 1, net::TopologyKind::kFullMesh);
  std::vector<FederatedDevice> devices = {{0, 7, &a}, {1, 7, &b}, {2, 7, &c}};
  fed.round(devices, 0);
  for (std::size_t i = 0; i < prefix; ++i) {
    ASSERT_NEAR(a.network().parameters()[i], expected[i], 1e-12);
    ASSERT_NEAR(c.network().parameters()[i], expected[i], 1e-12);
  }
}

TEST(Federation, LossyLinkDegradesGracefully) {
  // A black-hole link means no peer contributions arrive: averaging must
  // silently no-op (every group is just the local slice) rather than
  // corrupting parameters or throwing.
  rl::DqnAgent a(tiny_dqn(1, 100));
  rl::DqnAgent b(tiny_dqn(1, 200));
  jiggle(a, 11);
  jiggle(b, 12);
  const std::vector<double> a_before(a.network().parameters().begin(),
                                     a.network().parameters().end());
  net::LinkModel link;
  link.drop_probability = 1.0;
  DrlFederation fed(2, 2, net::TopologyKind::kFullMesh, link);
  std::vector<FederatedDevice> devices = {{0, 7, &a}, {1, 7, &b}};
  fed.round(devices, 0);
  const auto pa = a.network().parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], a_before[i]);
  EXPECT_EQ(fed.comm_stats().messages_delivered, 0u);
  EXPECT_GT(fed.comm_stats().messages_dropped, 0u);
}

TEST(Federation, RoundRecordsMetrics) {
  rl::DqnAgent a(tiny_dqn(1, 100));
  rl::DqnAgent b(tiny_dqn(1, 200));
  jiggle(a, 13);
  jiggle(b, 14);
  obs::MetricsRegistry reg;
  DrlFederation fed(2, 2, net::TopologyKind::kFullMesh, net::LinkModel{},
                    &reg);
  std::vector<FederatedDevice> devices = {{0, 7, &a}, {1, 7, &b}};
  fed.round(devices, 0);
  EXPECT_EQ(reg.counter("drl.rounds").value(), 1u);
  EXPECT_EQ(reg.counter("drl.contributions_accepted").value(), 2u);
  EXPECT_EQ(reg.counter("drl.contributions_rejected").value(), 0u);
  const std::size_t prefix = base_prefix_params(a.network(), 2);
  EXPECT_EQ(reg.counter("drl.params_averaged").value(), 2u * prefix);
  // Both averaging groups had size 2 (own slice + one peer).
  EXPECT_EQ(reg.histogram("drl.agg_group_size").count(), 2u);
  EXPECT_EQ(reg.counter("bus.drl.messages_sent").value(), 2u);
}

TEST(Federation, RoundIsIdempotentOnEqualAgents) {
  // Agents already equal: averaging must not change anything.
  rl::DqnAgent a(tiny_dqn(1, 100));
  rl::DqnAgent b(tiny_dqn(1, 100));
  const std::vector<double> before(a.network().parameters().begin(),
                                   a.network().parameters().end());
  DrlFederation fed(2, 3, net::TopologyKind::kFullMesh);
  std::vector<FederatedDevice> devices = {{0, 7, &a}, {1, 7, &b}};
  fed.round(devices, 0);
  const auto after = a.network().parameters();
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_NEAR(after[i], before[i], 1e-12);
  }
}

}  // namespace
}  // namespace pfdrl::core
