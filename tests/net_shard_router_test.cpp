// Shard assignment arithmetic, the router's cross-shard slab billing, and
// the engine-level equivalence contracts the sharded refactor rests on:
// attaching a router must not change what a clean-plan exchange delivers
// or bills, and an exchange over a routed 4-shard bus must be bitwise
// identical to one over a flat bus.
#include "net/shard_router.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "fl/exchange.hpp"
#include "net/bus.hpp"
#include "net/topology.hpp"
#include "util/shard.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl {
namespace {

// --- util::shard ------------------------------------------------------

TEST(ShardMath, ContiguousBalancedAndInverse) {
  for (std::size_t n : {1u, 2u, 7u, 10u, 100u}) {
    for (std::size_t shards : {1u, 2u, 3u, 8u, 100u, 150u}) {
      // shard_of must be the exact inverse of the shard_begin partition.
      for (std::size_t s = 0; s < std::min(shards, n); ++s) {
        const std::size_t lo = util::shard_begin(s, n, shards);
        const std::size_t hi = util::shard_begin(s + 1, n, shards);
        EXPECT_LE(hi - lo, (n + shards - 1) / shards);
        for (std::size_t i = lo; i < hi; ++i) {
          EXPECT_EQ(util::shard_of(i, n, shards), s)
              << "n=" << n << " shards=" << shards << " i=" << i;
        }
      }
      // Monotone, total cover.
      EXPECT_EQ(util::shard_begin(0, n, shards), 0u);
      EXPECT_EQ(util::shard_begin(shards, n, shards), n);
    }
  }
}

TEST(ShardMath, UnshardedIsShardZero) {
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(util::shard_of(i, 5, 0), 0u);
    EXPECT_EQ(util::shard_of(i, 5, 1), 0u);
  }
}

TEST(ShardMath, TimingImbalance) {
  util::ShardTiming empty;
  EXPECT_DOUBLE_EQ(empty.max_over_mean(), 1.0);
  util::ShardTiming t;
  t.shard_seconds = {1.0, 1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(t.max_over_mean(), 2.0);  // max 4 / mean 2
}

TEST(ShardMath, ShardedForVisitsEverythingOnce) {
  util::ThreadPool pool(2);
  std::vector<int> visits(100, 0);
  const util::ShardTiming timing = util::sharded_for(
      pool, visits.size(), 4,
      [&](std::size_t i) { return util::shard_of(i, visits.size(), 4); },
      [&](std::size_t i) { visits[i] += 1; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 100);
  EXPECT_EQ(timing.shard_seconds.size(), 4u);
}

// --- ShardRouter ------------------------------------------------------

TEST(ShardRouter, CtorValidatesAndClamps) {
  EXPECT_THROW(net::ShardRouter(0, 2), std::invalid_argument);
  net::ShardRouter clamped(3, 99);
  EXPECT_EQ(clamped.num_shards(), 3u);  // never more shards than agents
  net::ShardRouter floor(8, 0);
  EXPECT_EQ(floor.num_shards(), 1u);
}

TEST(ShardRouter, CrossShardMatchesAssignment) {
  net::ShardRouter router(10, 2);  // shards {0..4}, {5..9}
  EXPECT_FALSE(router.cross_shard(0, 4));
  EXPECT_TRUE(router.cross_shard(0, 5));
  EXPECT_TRUE(router.cross_shard(9, 1));
  EXPECT_EQ(router.shard_of(4), 0u);
  EXPECT_EQ(router.shard_of(5), 1u);
}

// One publish's pair loads become one slab per non-empty pair, billed
// under slab framing: a 16-byte slab header, then per message a 17-byte
// subheader and the raw payload.
TEST(ShardRouter, BillsOneSlabPerNonEmptyPair) {
  net::ShardRouter router(9, 3);  // shards {0,1,2} {3,4,5} {6,7,8}
  const net::PairLoad row0[] = {{0, 0}, {1, 8}, {2, 16}};
  const net::PairLoad row2[] = {{3, 24}, {0, 0}, {0, 0}};
  router.bill_publish(row0);
  router.bill_publish(row2);
  router.bill_publish(std::span<const net::PairLoad>{});  // nothing live
  const auto stats = router.stats();
  EXPECT_EQ(stats.messages_batched, 6u);
  EXPECT_EQ(stats.batches_flushed, 3u);  // three non-empty pairs
  EXPECT_EQ(stats.flushes, 3u);          // one per publish
  EXPECT_EQ(stats.max_batch_depth, 3u);
  EXPECT_EQ(stats.batched_bytes, 6 * net::kMessageHeaderBytes + 48);
  EXPECT_EQ(stats.batched_wire_bytes, 3 * 16 + 6 * 17 + 48u);
  router.reset_stats();
  EXPECT_EQ(router.stats().messages_batched, 0u);
}

// --- Exchange billing with and without a router -----------------------

// Attaching a router must not change what a clean-plan exchange delivers
// or bills on the bus; the router bills every cross-shard delivery once.
TEST(ShardedBus, CleanPlanDeliveryAndBillingUnchanged) {
  constexpr std::size_t kAgents = 6;
  constexpr std::size_t kParams = 5;
  std::vector<std::vector<double>> params(kAgents,
                                          std::vector<double>(kParams, 1.0));
  std::vector<fl::ExchangeItem> items;
  for (std::size_t a = 0; a < kAgents; ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = 0,
                     .send = params[a],
                     .in_place = {}});
  }
  net::MessageBus flat(net::Topology(net::TopologyKind::kFullMesh, kAgents),
                       {});
  net::MessageBus sharded(
      net::Topology(net::TopologyKind::kFullMesh, kAgents), {});
  net::ShardRouter router(kAgents, 2);
  sharded.set_shard_router(&router);
  const auto flat_stats = fl::ParamExchange(flat, {}).round(items, 0, {});
  const auto sharded_stats = fl::ParamExchange(sharded, {}).round(items, 0, {});
  EXPECT_EQ(flat_stats.accepted, sharded_stats.accepted);

  // Wire billing is per delivery, so the stats lines agree.
  const auto fs = flat.stats();
  const auto ss = sharded.stats();
  EXPECT_EQ(fs.messages_sent, ss.messages_sent);
  EXPECT_EQ(fs.messages_delivered, ss.messages_delivered);
  EXPECT_EQ(fs.messages_delivered, kAgents * (kAgents - 1));
  EXPECT_EQ(fs.bytes_on_wire, ss.bytes_on_wire);
  // Summed per shard, so equal up to rounding.
  EXPECT_DOUBLE_EQ(fs.simulated_transfer_seconds, ss.simulated_transfer_seconds);

  // Three agents per shard, each delivering to the other shard's three.
  const std::uint64_t payload = kParams * sizeof(double);
  const auto rs = router.stats();
  EXPECT_EQ(rs.messages_batched, 18u);
  EXPECT_EQ(rs.batches_flushed, 2u);
  EXPECT_EQ(rs.flushes, 2u);
  EXPECT_EQ(rs.max_batch_depth, 9u);
  EXPECT_EQ(rs.batched_bytes, 18 * (net::kMessageHeaderBytes + payload));
  EXPECT_EQ(rs.batched_wire_bytes, 2 * 16 + 18 * (17 + payload));
}

// --- A routed exchange is bitwise identical to a flat one --------------

TEST(ShardedExchange, RoutedMatchesFlatBitwise) {
  constexpr std::size_t kAgents = 8;
  constexpr std::size_t kParams = 12;

  const auto run = [&](bool routed) {
    net::MessageBus bus(
        net::Topology(net::TopologyKind::kFullMesh, kAgents), {});
    net::ShardRouter router(kAgents, 4);
    if (routed) bus.set_shard_router(&router);

    std::vector<double> params(kAgents * kParams);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] = static_cast<double>((i * 2654435761u) % 1000) / 997.0;
    }
    std::vector<fl::ExchangeItem> items(kAgents);
    for (std::size_t a = 0; a < kAgents; ++a) {
      const std::span<double> slice(params.data() + a * kParams, kParams);
      items[a] = {.agent = static_cast<net::AgentId>(a),
                  .device_type = static_cast<std::uint32_t>(a % 2),
                  .send = slice,
                  .in_place = slice};
    }
    fl::ParamExchange exchange(bus, {});
    for (std::uint64_t r = 0; r < 3; ++r) {
      exchange.round(items, r, [](std::size_t, std::span<const double>) {});
    }
    return params;
  };

  const std::vector<double> flat = run(false);
  const std::vector<double> routed = run(true);
  ASSERT_EQ(flat.size(), routed.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], routed[i]) << "param " << i;  // bitwise
  }
}

}  // namespace
}  // namespace pfdrl
