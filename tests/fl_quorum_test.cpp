// Degraded-round semantics of fl::ParamExchange: crash windows, quorum
// gating with local fallback, duplicate-delivery idempotence, stale
// crash-backlog discard, straggler-vs-deadline lateness, star hub
// retries and partition-window split-brain averaging.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "fl/exchange.hpp"
#include "net/bus.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"

namespace pfdrl::fl {
namespace {

std::vector<std::vector<double>> make_params(std::size_t agents,
                                             std::size_t len) {
  std::vector<std::vector<double>> params(agents, std::vector<double>(len));
  for (std::size_t a = 0; a < agents; ++a) {
    for (std::size_t i = 0; i < len; ++i) {
      params[a][i] = static_cast<double>(a * 100 + i);
    }
  }
  return params;
}

std::vector<ExchangeItem> make_items(std::vector<std::vector<double>>& params) {
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < params.size(); ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = 7,
                     .send = params[a],
                     .in_place = params[a]});
  }
  return items;
}

ParamExchange::Options with_policy(ExchangePolicy policy) {
  ParamExchange::Options options;
  options.policy = std::move(policy);
  return options;
}

TEST(QuorumRounds, CrashedAgentSkipsRoundOthersAverage) {
  auto params = make_params(3, 4);
  const auto original = params;
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 3));
  ExchangePolicy policy;
  policy.failures.crashes.push_back({.agent = 2, .from_round = 0,
                                     .until_round = 1});
  ParamExchange exchange(bus, with_policy(policy));
  auto items = make_items(params);

  const auto stats = exchange.round(items, 0, {});
  EXPECT_EQ(stats.crashed_items, 1u);
  EXPECT_EQ(stats.items_averaged, 2u);
  EXPECT_EQ(stats.accepted, 2u);  // agents 0 and 1 accept each other only
  for (std::size_t i = 0; i < 4; ++i) {
    const double mean = (original[0][i] + original[1][i]) / 2.0;
    EXPECT_DOUBLE_EQ(params[0][i], mean);
    EXPECT_DOUBLE_EQ(params[1][i], mean);
    EXPECT_DOUBLE_EQ(params[2][i], original[2][i]);  // crashed: untouched
  }
}

TEST(QuorumRounds, MissedQuorumFallsBackToLocal) {
  auto params = make_params(3, 4);
  const auto original = params;
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 3));
  ExchangePolicy policy;
  policy.quorum_fraction = 1.0;  // need the whole nominal group
  policy.failures.crashes.push_back({.agent = 2, .from_round = 0,
                                     .until_round = 1});
  ParamExchange exchange(bus, with_policy(policy));
  auto items = make_items(params);

  const auto stats = exchange.round(
      items, 0, [](std::size_t, std::span<const double>) { FAIL(); });
  // The crashed member still counts toward the nominal group of 3, so
  // 2/3 misses a 1.0 quorum and every live item keeps local parameters.
  EXPECT_EQ(stats.items_averaged, 0u);
  EXPECT_EQ(stats.quorum_missed, 2u);
  EXPECT_EQ(stats.quorum_met, 0u);
  EXPECT_EQ(stats.local_fallbacks, 2u);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(params[a][i], original[a][i]);
    }
  }
}

TEST(QuorumRounds, PartialQuorumStillAverages) {
  auto params = make_params(4, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 4));
  ExchangePolicy policy;
  policy.quorum_fraction = 0.75;  // 3 of the nominal 4
  policy.failures.crashes.push_back({.agent = 3, .from_round = 0,
                                     .until_round = 1});
  ParamExchange exchange(bus, with_policy(policy));
  auto items = make_items(params);

  const auto stats = exchange.round(items, 0, {});
  EXPECT_EQ(stats.items_averaged, 3u);
  EXPECT_EQ(stats.quorum_met, 3u);
  EXPECT_EQ(stats.quorum_missed, 0u);
  EXPECT_EQ(stats.local_fallbacks, 0u);
}

TEST(QuorumRounds, DuplicatedDeliveriesCollapseToOneVote) {
  // Clean run first: the expected average.
  auto clean = make_params(2, 4);
  {
    net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 2));
    ParamExchange exchange(bus, {});
    auto items = make_items(clean);
    exchange.round(items, 0, {});
  }

  auto params = make_params(2, 4);
  net::FaultPlan plan;
  plan.duplicate_probability = 1.0;  // every delivery enqueued twice
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 2), plan);
  ParamExchange exchange(bus, {});
  auto items = make_items(params);
  const auto stats = exchange.round(items, 0, {});

  EXPECT_EQ(stats.duplicates, 2u);  // one collapsed copy per receiver
  EXPECT_EQ(stats.accepted, 2u);    // each unique sender weighs once
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(params[a][i], clean[a][i]);  // idempotent
    }
  }
}

TEST(QuorumRounds, CrashBacklogDiscardedAsStaleAfterRestart) {
  auto params = make_params(2, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 2));
  ExchangePolicy policy;
  policy.failures.crashes.push_back({.agent = 1, .from_round = 0,
                                     .until_round = 1});
  ParamExchange exchange(bus, with_policy(policy));
  auto items = make_items(params);

  // Round 0: agent 1 is down. Agent 0's broadcast piles up as agent 1's
  // crash backlog; agent 0 itself hears nothing and falls back to local.
  const auto r0 = exchange.round(items, 0, {});
  EXPECT_EQ(r0.crashed_items, 1u);
  EXPECT_EQ(r0.local_fallbacks, 1u);
  EXPECT_EQ(r0.items_averaged, 0u);
  EXPECT_EQ(bus.backlog(1), 1u);  // the backlog survives the round

  // Round 1: agent 1 restarts and discards the round-0 backlog as stale;
  // the fresh round-1 traffic averages fine.
  items = make_items(params);
  const auto r1 = exchange.round(items, 1, {});
  EXPECT_EQ(r1.crashed_items, 0u);
  EXPECT_EQ(r1.stale_msgs, 1u);
  EXPECT_EQ(r1.items_averaged, 2u);
  EXPECT_EQ(r1.accepted, 2u);
  EXPECT_EQ(bus.backlog(1), 0u);
}

TEST(QuorumRounds, DeadlineDiscardsStragglerContributions) {
  auto params = make_params(2, 4);
  const auto original = params;
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 2));
  ExchangePolicy policy;
  policy.round_deadline_s = 0.5;
  policy.failures.stragglers.push_back({.agent = 1, .compute_delay_s = 1.0});
  ParamExchange exchange(bus, with_policy(policy));
  auto items = make_items(params);

  const auto stats = exchange.round(items, 0, {});
  // Agent 1 starts 1.0 s late, so its contribution blows the 0.5 s
  // deadline at agent 0 (local fallback); agent 0's on-time broadcast
  // still reaches agent 1, which averages normally.
  EXPECT_EQ(stats.late_msgs, 1u);
  EXPECT_EQ(stats.local_fallbacks, 1u);
  EXPECT_EQ(stats.items_averaged, 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(params[0][i], original[0][i]);  // kept local
    EXPECT_DOUBLE_EQ(params[1][i],
                     (original[0][i] + original[1][i]) / 2.0);
  }
}

TEST(QuorumRounds, StarHubRetriesRecoverDroppedLeafContributions) {
  // A very lossy leaf->hub path plus generous retries: across seeds the
  // hub must still assemble the full contribution set for itself (the
  // retransmissions survive dedupe as one vote per sender).
  std::uint64_t total_retries = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto params = make_params(3, 4);
    const auto original = params;
    net::FaultPlan plan;
    plan.link.drop_probability = 0.6;
    plan.seed = seed;
    net::MessageBus bus(net::Topology(net::TopologyKind::kStar, 3), plan);
    ExchangePolicy policy;
    policy.hub_retries = 64;
    ParamExchange exchange(bus, with_policy(policy));
    auto items = make_items(params);

    const auto stats = exchange.round(items, 0, {});
    total_retries += stats.retries;
    for (std::size_t i = 0; i < 4; ++i) {
      const double mean =
          (original[0][i] + original[1][i] + original[2][i]) / 3.0;
      EXPECT_DOUBLE_EQ(params[0][i], mean) << "seed=" << seed;
    }
  }
  // Lucky seeds need no retransmission; across 20 seeds at 60% loss the
  // retry path must have fired.
  EXPECT_GT(total_retries, 0u);
}

TEST(QuorumRounds, CrashedStarHubTakesTheRoundDown) {
  auto params = make_params(3, 4);
  const auto original = params;
  net::MessageBus bus(net::Topology(net::TopologyKind::kStar, 3));
  ExchangePolicy policy;
  policy.failures.crashes.push_back({.agent = 0, .from_round = 0,
                                     .until_round = 1});
  ParamExchange exchange(bus, with_policy(policy));
  auto items = make_items(params);

  const auto stats = exchange.round(items, 0, {});
  // No relays without the hub: every live leaf hears nobody.
  EXPECT_EQ(stats.relayed, 0u);
  EXPECT_EQ(stats.items_averaged, 0u);
  EXPECT_EQ(stats.local_fallbacks, 2u);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(params[a][i], original[a][i]);
    }
  }
}

TEST(QuorumRounds, PartitionWindowSplitsAveragingBrains) {
  auto params = make_params(4, 4);
  const auto original = params;
  net::FaultPlan plan;
  net::PartitionWindow w;
  w.from_round = 0;
  w.until_round = 1;
  w.group = {0, 1};
  plan.partitions.push_back(w);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 4), plan);
  ParamExchange exchange(bus, {});
  auto items = make_items(params);

  // During the window each side of the split averages only with itself.
  exchange.round(items, 0, {});
  for (std::size_t i = 0; i < 4; ++i) {
    const double left = (original[0][i] + original[1][i]) / 2.0;
    const double right = (original[2][i] + original[3][i]) / 2.0;
    EXPECT_DOUBLE_EQ(params[0][i], left);
    EXPECT_DOUBLE_EQ(params[1][i], left);
    EXPECT_DOUBLE_EQ(params[2][i], right);
    EXPECT_DOUBLE_EQ(params[3][i], right);
  }

  // After the window heals the whole neighbourhood converges again.
  items = make_items(params);
  exchange.round(items, 1, {});
  for (std::size_t i = 0; i < 4; ++i) {
    const double mean = (2.0 * (original[0][i] + original[1][i]) / 2.0 +
                         2.0 * (original[2][i] + original[3][i]) / 2.0) /
                        4.0;
    for (std::size_t a = 0; a < 4; ++a) {
      EXPECT_DOUBLE_EQ(params[a][i], mean);
    }
  }
}

TEST(QuorumRounds, DefaultPolicyMatchesLegacyRound) {
  // The zero-valued policy must reproduce the original engine exactly.
  auto legacy = make_params(3, 4);
  {
    net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 3));
    ParamExchange exchange(bus, {});
    auto items = make_items(legacy);
    exchange.round(items, 0, {});
  }
  auto params = make_params(3, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 3));
  ParamExchange exchange(bus, with_policy(ExchangePolicy{}));
  auto items = make_items(params);
  const auto stats = exchange.round(items, 0, {});
  EXPECT_EQ(stats.items_averaged, 3u);
  EXPECT_EQ(stats.quorum_met, 0u);  // gate disabled: not counted
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(params[a][i], legacy[a][i]);
    }
  }
}

}  // namespace
}  // namespace pfdrl::fl
