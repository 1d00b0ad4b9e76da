// Shard assignment arithmetic, the cross-shard batching router, and the
// engine-level equivalence contracts the sharded refactor rests on:
// attaching a router must not change what a clean-plan bus delivers or
// bills, and an exchange over a routed 4-shard bus must be bitwise
// identical to one over a flat bus.
#include "net/shard_router.hpp"

#include <gtest/gtest.h>

#include <numeric>
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

net::Message make_msg(net::AgentId sender, double tag) {
  net::Message m;
  m.sender = sender;
  m.payload = std::vector<double>{tag};
  return m;
}

TEST(ShardRouter, FlushOrderIsPinnedRowMajor) {
  net::ShardRouter router(9, 3);  // shards {0,1,2} {3,4,5} {6,7,8}
  // Enqueue in scrambled pair order; two messages on the (2,0) pair to
  // check in-pair FIFO.
  router.enqueue(0, make_msg(7, 1.0));   // pair (2,0)
  router.enqueue(6, make_msg(0, 2.0));   // pair (0,2)
  router.enqueue(1, make_msg(8, 3.0));   // pair (2,0) again
  router.enqueue(3, make_msg(2, 4.0));   // pair (0,1)
  EXPECT_EQ(router.pending(), 4u);

  std::vector<double> tags;
  std::vector<net::AgentId> targets;
  std::size_t n = 0;
  for (std::size_t src = 0; src < 3; ++src) {
    n += router.flush_src(src, [&](net::AgentId to, net::Message&& m) {
      targets.push_back(to);
      tags.push_back(m.payload[0]);
    });
  }
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(router.pending(), 0u);
  // Ascending (src shard, dst shard): (0,1), (0,2), then (2,0) in FIFO.
  EXPECT_EQ(tags, (std::vector<double>{4.0, 2.0, 1.0, 3.0}));
  EXPECT_EQ(targets, (std::vector<net::AgentId>{3, 6, 0, 1}));

  const auto stats = router.stats();
  EXPECT_EQ(stats.messages_batched, 4u);
  EXPECT_EQ(stats.batches_flushed, 3u);  // three non-empty pairs
  EXPECT_EQ(stats.flushes, 3u);  // one per source row
  EXPECT_EQ(stats.max_batch_depth, 2u);
  EXPECT_GT(stats.batched_bytes, 0u);
}

TEST(ShardRouter, EnqueueOutOfRangeThrows) {
  net::ShardRouter router(4, 2);
  EXPECT_THROW(router.enqueue(4, make_msg(0, 0.0)), std::out_of_range);
  EXPECT_THROW(router.enqueue(0, make_msg(9, 0.0)), std::out_of_range);
}

// --- Bus equivalence with and without a router ------------------------

TEST(ShardedBus, CleanPlanDeliveryAndBillingUnchanged) {
  constexpr std::size_t kAgents = 6;
  net::MessageBus flat(net::Topology(net::TopologyKind::kFullMesh, kAgents),
                       {});
  net::MessageBus sharded(
      net::Topology(net::TopologyKind::kFullMesh, kAgents), {});
  net::ShardRouter router(kAgents, 2);
  sharded.set_shard_router(&router);

  for (net::AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(flat.broadcast(make_msg(a, static_cast<double>(a))),
              sharded.broadcast(make_msg(a, static_cast<double>(a))));
  }
  EXPECT_GT(router.pending(), 0u);
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    sharded.flush_shard_batches_from(s);
  }

  // Every inbox drains the same multiset of senders; wire billing is
  // per delivery, so the stats lines agree exactly.
  for (net::AgentId a = 0; a < kAgents; ++a) {
    auto lhs = flat.drain(a);
    auto rhs = sharded.drain(a);
    ASSERT_EQ(lhs.size(), rhs.size()) << "agent " << a;
    std::vector<net::AgentId> ls, rs;
    for (const auto& m : lhs) ls.push_back(m.sender);
    for (const auto& m : rhs) rs.push_back(m.sender);
    std::sort(ls.begin(), ls.end());
    std::sort(rs.begin(), rs.end());
    EXPECT_EQ(ls, rs) << "agent " << a;
  }
  const auto fs = flat.stats();
  const auto ss = sharded.stats();
  EXPECT_EQ(fs.messages_sent, ss.messages_sent);
  EXPECT_EQ(fs.messages_delivered, ss.messages_delivered);
  EXPECT_EQ(fs.bytes_on_wire, ss.bytes_on_wire);
  EXPECT_EQ(fs.simulated_transfer_seconds, ss.simulated_transfer_seconds);
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
