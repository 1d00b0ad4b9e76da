// ParamExchange engine unit tests: grouped averaging, shape guard, star
// relay, secure-aggregation masking, in-place prefix averaging, the
// zero-copy allocation guarantee (payload copies scale with items, not
// receivers), and shared averages (one per accepted contribution set,
// summed in ascending sender order).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include "fl/aggregate.hpp"
#include "fl/exchange.hpp"
#include "fl/round_pipeline.hpp"
#include "fl/secure_agg.hpp"
#include "net/bus.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {
namespace {

// One flat parameter vector per agent, all the same device type.
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

std::vector<ExchangeItem> make_items(std::vector<std::vector<double>>& params,
                                     std::uint32_t type = 7) {
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < params.size(); ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = type,
                     .send = params[a],
                     .in_place = {}});
  }
  return items;
}

TEST(ParamExchange, FullMeshAveragesPerGroup) {
  const std::size_t n = 3;
  auto params = make_params(n, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange exchange(bus, {});
  auto items = make_items(params);

  std::vector<std::vector<double>> committed(n);
  const auto stats = exchange.round(
      items, 0, [&](std::size_t i, std::span<const double> averaged) {
        committed[i].assign(averaged.begin(), averaged.end());
      });

  EXPECT_EQ(stats.accepted, n * (n - 1));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.items_averaged, n);
  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(committed[a].size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      // mean over agents of (a*100 + i) = 100 + i for n = 3.
      EXPECT_DOUBLE_EQ(committed[a][i], 100.0 + static_cast<double>(i));
    }
  }
}

TEST(ParamExchange, PayloadCopiesScaleWithItemsNotReceivers) {
  // The acceptance criterion for the zero-copy refactor: a full-mesh
  // broadcast performs O(1) payload allocations per item regardless of
  // how many receivers fan out.
  for (const std::size_t n : {std::size_t{4}, std::size_t{12}}) {
    auto params = make_params(n, 32);
    net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
    obs::MetricsRegistry reg;
    ParamExchange::Options options;
    options.metrics = &reg;
    ParamExchange exchange(bus, options);
    auto items = make_items(params);
    const auto stats = exchange.round(items, 0, {});
    EXPECT_EQ(stats.payload_allocations, n) << "receivers=" << n - 1;
    EXPECT_EQ(reg.counter("exchange.payload_copies").value(), n);
    EXPECT_EQ(reg.counter("exchange.items").value(), n);
    EXPECT_EQ(reg.counter("exchange.rounds").value(), 1u);
  }
}

TEST(ParamExchange, ShapeGuardRejectsMismatchedContributions) {
  const std::size_t n = 3;
  auto params = make_params(n, 4);
  params[2].resize(6, 0.0);  // odd one out
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange exchange(bus, {});
  auto items = make_items(params);

  std::vector<bool> touched(n, false);
  const auto stats =
      exchange.round(items, 0, [&](std::size_t i, std::span<const double>) {
        touched[i] = true;
      });

  // Agents 0/1 accept each other and reject agent 2 (one rejection
  // each); agent 2 rejects both of theirs and averages nothing.
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.items_averaged, 2u);
  EXPECT_TRUE(touched[0]);
  EXPECT_TRUE(touched[1]);
  EXPECT_FALSE(touched[2]);  // below min_group: keeps local parameters
}

TEST(ParamExchange, DisjointTypesNeverMix) {
  const std::size_t n = 2;
  auto params = make_params(n, 3);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange exchange(bus, {});
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < n; ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = static_cast<std::uint32_t>(a),  // unique
                     .send = params[a],
                     .in_place = {}});
  }
  const auto stats = exchange.round(
      items, 0, [](std::size_t, std::span<const double>) { FAIL(); });
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.items_averaged, 0u);
}

TEST(ParamExchange, StarHubRelaysLeafContributions) {
  const std::size_t n = 3;
  auto params = make_params(n, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kStar, n));
  ParamExchange exchange(bus, {});
  auto items = make_items(params);

  std::vector<std::vector<double>> committed(n);
  const auto stats = exchange.round(
      items, 0, [&](std::size_t i, std::span<const double> averaged) {
        committed[i].assign(averaged.begin(), averaged.end());
      });

  // Each of the two leaf messages is relayed to the one other leaf.
  EXPECT_EQ(stats.relayed, 2u);
  // Despite the star, every agent ends with the full contribution set
  // and the same average as the full mesh.
  EXPECT_EQ(stats.accepted, n * (n - 1));
  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(committed[a].size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(committed[a][i], 100.0 + static_cast<double>(i));
    }
  }
}

// Every leaf->hub delivery arrives twice (dup = 1.0). The hub still
// relays each (sender, device type) once — its earliest copy — so no two
// relays of one round share a fault key, and every agent averages the
// full contribution set exactly once per sender.
TEST(ParamExchange, StarHubRelaysEachContributionOnceUnderDuplication) {
  const std::size_t n = 5;
  auto params = make_params(n, 4);
  net::FaultPlan plan;
  plan.duplicate_probability = 1.0;
  net::MessageBus bus(net::Topology(net::TopologyKind::kStar, n), plan);
  ParamExchange exchange(bus, {});
  auto items = make_items(params);

  std::vector<std::vector<double>> committed(n);
  const auto stats = exchange.round(
      items, 0, [&](std::size_t i, std::span<const double> averaged) {
        committed[i].assign(averaged.begin(), averaged.end());
      });

  // n - 1 leaf contributions, each relayed to the n - 2 other leaves.
  EXPECT_EQ(stats.relayed, (n - 1) * (n - 2));
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_GT(stats.duplicates, 0u);
  EXPECT_EQ(stats.accepted, n * (n - 1));
  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(committed[a].size(), 4u) << "agent " << a;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(committed[a][i], 200.0 + static_cast<double>(i));
    }
  }
}

TEST(ParamExchange, InPlacePrefixLeavesPersonalizationSuffix) {
  const std::size_t n = 2;
  const std::size_t len = 6;
  const std::size_t prefix = 4;
  auto params = make_params(n, len);
  const auto original = params;
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange exchange(bus, {});
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < n; ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = 7,
                     .send = std::span<const double>(params[a]).subspan(0, prefix),
                     .in_place = params[a]});
  }
  std::size_t commits = 0;
  const auto stats = exchange.round(
      items, 0, [&](std::size_t, std::span<const double> averaged) {
        EXPECT_EQ(averaged.size(), prefix);
        ++commits;
      });
  EXPECT_EQ(commits, n);
  EXPECT_EQ(stats.params_averaged, n * prefix);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t i = 0; i < prefix; ++i) {
      const double mean = (original[0][i] + original[1][i]) / 2.0;
      EXPECT_DOUBLE_EQ(params[a][i], mean);
    }
    for (std::size_t i = prefix; i < len; ++i) {
      EXPECT_DOUBLE_EQ(params[a][i], original[a][i]);  // untouched
    }
  }
}

TEST(ParamExchange, SecureMasksCancelInTheMean) {
  const std::size_t n = 3;
  auto params = make_params(n, 8);
  net::MessageBus plain_bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange plain(plain_bus, {});
  auto items = make_items(params);
  std::vector<std::vector<double>> want(n);
  plain.round(items, 5, [&](std::size_t i, std::span<const double> averaged) {
    want[i].assign(averaged.begin(), averaged.end());
  });

  const SecureAggregator aggregator;
  net::MessageBus masked_bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange::Options options;
  options.secure = &aggregator;
  ParamExchange masked(masked_bus, options);
  std::vector<std::vector<double>> got(n);
  masked.round(items, 5, [&](std::size_t i, std::span<const double> averaged) {
    got[i].assign(averaged.begin(), averaged.end());
  });

  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(got[a].size(), want[a].size());
    for (std::size_t i = 0; i < got[a].size(); ++i) {
      // Pairwise masks cancel in the sum; only float cancellation error
      // survives.
      EXPECT_NEAR(got[a][i], want[a][i], 1e-9);
    }
  }
}

// ---- Shared averages -------------------------------------------------

// Parameters whose magnitudes differ by agent, so the floating-point sum
// depends on the order it runs in: an engine that let each receiver sum
// in its own order would hand group members different bits.
std::vector<std::vector<double>> order_sensitive_params(std::size_t agents,
                                                        std::size_t len,
                                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> params(agents, std::vector<double>(len));
  for (std::size_t a = 0; a < agents; ++a) {
    const double scale = a % 3 == 0 ? 1e8 : (a % 3 == 1 ? 1.0 : 1e-8);
    for (double& v : params[a]) v = scale * rng.normal();
  }
  return params;
}

// The average of `senders`' vectors in ascending sender order — the
// engine's documented order, whoever the receiver is.
std::vector<double> sorted_average(
    const std::vector<std::vector<double>>& params,
    const std::vector<std::size_t>& senders) {
  std::vector<std::span<const double>> views;
  for (const std::size_t a : senders) views.emplace_back(params[a]);
  std::vector<double> out(params.front().size());
  fedavg(views, out);
  return out;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A clean full mesh: every member of a device-type group accepts the
// same contributions, so the group shares one average — identical bits
// at every receiver, equal to the ascending-sender-order mean, computed
// once per device type. The staged engine shares within one apply.
TEST(ParamExchange, CleanMeshSharesOneAveragePerDeviceType) {
  const std::size_t n = 7;
  constexpr std::uint32_t kTypes[] = {3, 9};
  std::vector<std::vector<double>> params[2] = {
      order_sensitive_params(n, 37, 1), order_sensitive_params(n, 37, 2)};
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t t = 0; t < 2; ++t) {
      items.push_back({.agent = static_cast<net::AgentId>(a),
                       .device_type = kTypes[t],
                       .send = params[t][a],
                       .in_place = {}});
    }
  }
  std::vector<std::size_t> everyone(n);
  for (std::size_t a = 0; a < n; ++a) everyone[a] = a;
  const std::vector<double> want[2] = {sorted_average(params[0], everyone),
                                       sorted_average(params[1], everyone)};
  // Summing in any receiver-dependent order would move bits here.
  ASSERT_FALSE(same_bits(want[0], sorted_average(params[0],
                                                 {3, 0, 1, 2, 4, 5, 6})));

  const auto check = [&](const std::vector<std::vector<double>>& committed) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_TRUE(same_bits(committed[i], want[i % 2])) << "item " << i;
    }
  };
  obs::MetricsRegistry reg;
  ParamExchange::Options options;
  options.metrics = &reg;
  std::vector<std::vector<double>> committed(items.size());
  const auto commit = [&](std::size_t i, std::span<const double> averaged) {
    committed[i].assign(averaged.begin(), averaged.end());
  };
  {
    net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
    ParamExchange exchange(bus, options);
    const auto stats = exchange.round(items, 0, commit);
    check(committed);
    EXPECT_EQ(stats.items_averaged, items.size());
    EXPECT_EQ(stats.averages_computed, 2u);
    EXPECT_EQ(reg.counter("exchange.averages_computed").value(), 2u);
    EXPECT_EQ(reg.counter("exchange.items").value(), items.size());
  }
  {
    net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
    StagedExchange staged(bus, {}, items);
    committed.assign(items.size(), {});
    staged.publish_shard(0, 4);
    staged.apply_shard(0, 4, commit);
    check(committed);
    EXPECT_EQ(staged.stats().averages_computed, 2u);
  }
}

// One lost delivery (sender s -> receiver r): r's accepted set lacks s,
// so r averages alone — still in ascending sender order — while every
// other receiver, s included, shares the full-set average. The engine
// counts both averages.
TEST(ParamExchange, DroppedLinkReceiverAveragesAloneAndIsCounted) {
  const std::size_t n = 6;
  const auto params = order_sensitive_params(n, 29, 3);
  auto mutable_params = params;
  const auto items = make_items(mutable_params);
  std::vector<std::size_t> everyone(n);
  for (std::size_t a = 0; a < n; ++a) everyone[a] = a;
  const auto full = sorted_average(params, everyone);

  // Find a fault-stream seed that drops exactly one of the n(n-1)
  // deliveries of round 0.
  for (std::uint64_t seed = 1; seed < 500; ++seed) {
    net::FaultPlan plan;
    plan.link.drop_probability = 0.03;
    plan.seed = seed;
    net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n), plan);
    ParamExchange exchange(bus, {});
    std::vector<std::vector<double>> committed(n);
    const auto stats = exchange.round(
        items, 0, [&](std::size_t i, std::span<const double> averaged) {
          committed[i].assign(averaged.begin(), averaged.end());
        });
    if (bus.stats().messages_dropped != 1) continue;

    EXPECT_EQ(stats.accepted, n * (n - 1) - 1);
    EXPECT_EQ(stats.items_averaged, n);
    EXPECT_EQ(stats.averages_computed, 2u);
    std::size_t alone = n;
    for (std::size_t r = 0; r < n; ++r) {
      if (same_bits(committed[r], full)) continue;
      EXPECT_EQ(alone, n) << "more than one receiver lost a contribution";
      alone = r;
    }
    ASSERT_LT(alone, n);
    // Its average is the ascending-order mean of the set it accepted:
    // everyone but the one sender whose delivery was dropped.
    std::size_t matches = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (s == alone) continue;
      std::vector<std::size_t> senders;
      for (std::size_t a = 0; a < n; ++a) {
        if (a != s) senders.push_back(a);
      }
      if (same_bits(committed[alone], sorted_average(params, senders))) {
        ++matches;
      }
    }
    EXPECT_EQ(matches, 1u);
    return;
  }
  FAIL() << "no seed in range dropped exactly one delivery";
}

// The averaged bits depend only on the accepted contributions, never on
// which receiver sums them. Summing the receiver's own payload first —
// the order before contributions were sorted — gives some receivers
// different bits, which is what the check would catch.
TEST(ParamExchange, AveragedBitsIndependentOfReceiverId) {
  const std::size_t n = 5;
  const auto params = order_sensitive_params(n, 41, 4);
  auto mutable_params = params;
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange exchange(bus, {});
  const auto items = make_items(mutable_params);
  std::vector<std::vector<double>> committed(n);
  exchange.round(items, 0, [&](std::size_t i, std::span<const double> avg) {
    committed[i].assign(avg.begin(), avg.end());
  });
  std::vector<std::size_t> everyone(n);
  for (std::size_t a = 0; a < n; ++a) everyone[a] = a;
  const auto want = sorted_average(params, everyone);
  bool own_first_differs = false;
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_TRUE(same_bits(committed[r], want)) << "receiver " << r;
    std::vector<std::size_t> own_first = {r};
    for (std::size_t a = 0; a < n; ++a) {
      if (a != r) own_first.push_back(a);
    }
    own_first_differs |= !same_bits(sorted_average(params, own_first), want);
  }
  EXPECT_TRUE(own_first_differs);
}

// An uneven sharded segment: shard 0 computes slowly, and on an
// all-to-all graph every other shard waits for its publish each round.
// stall_seconds is the mean over shards of each shard's summed wait, and
// one shard's waits never overlap, so it stays within the wall time even
// though the waits summed over shards exceed it.
TEST(RoundPipeline, StallAndOverlapAreBoundedByWallTime) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kRounds = 6;
  util::ThreadPool pool(kShards);
  std::vector<std::vector<std::uint32_t>> all_to_all(kShards);
  for (auto& row : all_to_all) {
    for (std::uint32_t d = 0; d < kShards; ++d) row.push_back(d);
  }
  RoundPipeline pipe(all_to_all);
  RoundPipeline::Ops ops;
  ops.compute = [](std::size_t s, std::uint64_t) {
    if (s == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  ops.publish = [](std::size_t, std::uint64_t) {};
  ops.apply = [](std::size_t, std::uint64_t) {};
  pipe.run(pool, 0, kRounds, ops);

  const PipelineStats& stats = pipe.stats();
  EXPECT_EQ(stats.rounds, kRounds);
  EXPECT_EQ(stats.shard_rounds, kRounds * kShards);
  EXPECT_GE(stats.wall_seconds, 0.02 * kRounds);
  EXPECT_GE(stats.stall_seconds, 0.0);
  EXPECT_LE(stats.stall_seconds, stats.wall_seconds);
  EXPECT_LE(stats.overlap_seconds, stats.wall_seconds);
}

}  // namespace
}  // namespace pfdrl::fl
