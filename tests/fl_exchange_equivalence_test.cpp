// Differential oracle for the federated exchange engine. Forty seeded
// configurations span the engine's whole input space:
//   - every topology kind, 2 to 40 agents owning one to three device
//     types unevenly (some agents own none), one odd-shaped item now
//     and then for the shape guard;
//   - shard counts {1, 2, 3, 8}; the round engine (fl::RoundPipeline
//     over fl::StagedExchange) on pools of 1 and 4 workers, or the
//     sequential one-round driver (fl::ParamExchange::round);
//   - lossy, duplicating, delayed, jittered and partitioned link plans;
//   - deadlines, quorum gates, hub retries, stragglers and crash windows,
//     some of which span the two sessions each configuration runs;
//   - secure aggregation on reliable plans;
//   - in-place prefix averaging and commit-callback averaging.
// Each configuration's results are pinned against a committed table: a
// hash of every parameter, the bus counters, the exchange stats (all but
// averages_computed, which counts shared work, not results) and the
// router counters. The two simulated-seconds ledgers are sums in
// delivery order, so they are pinned to 1e-9 relative.
//
// PFDRL_EQUIVALENCE_PRINT=1 prints the table instead of checking it;
// regenerate it only for a change that is meant to move results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "fl/exchange.hpp"
#include "fl/round_pipeline.hpp"
#include "fl/secure_agg.hpp"
#include "net/bus.hpp"
#include "net/fault.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {
namespace {

constexpr std::size_t kConfigs = 40;

enum class Driver { kSequential, kPipeline };

struct Config {
  net::TopologyKind kind = net::TopologyKind::kFullMesh;
  net::TopologyOptions topology_options{};
  std::size_t agents = 2;
  std::size_t types = 1;
  std::size_t shards = 1;
  Driver driver = Driver::kPipeline;
  std::size_t workers = 1;
  net::FaultPlan plan{};
  ExchangePolicy policy{};
  bool secure = false;
  bool in_place = false;
  bool odd_shape = false;
  std::uint64_t rounds[2] = {3, 3};
};

Config make_config(std::size_t c) {
  constexpr net::TopologyKind kKinds[] = {
      net::TopologyKind::kFullMesh, net::TopologyKind::kStar,
      net::TopologyKind::kRing, net::TopologyKind::kHierarchical,
      net::TopologyKind::kGossip};
  constexpr std::size_t kShards[] = {1, 2, 3, 8};
  util::Rng rng(0xE0A1ULL + c);
  Config cfg;
  cfg.kind = kKinds[c % 5];
  cfg.shards = kShards[(c / 5) % 4];
  cfg.workers = (c / 20) % 2 == 0 ? 1 : 4;
  cfg.driver = c % 7 == 3 ? Driver::kSequential : Driver::kPipeline;
  cfg.agents = static_cast<std::size_t>(rng.uniform_int(2, 40));
  cfg.types = 1 + c % 3;
  cfg.topology_options.cluster_size =
      static_cast<std::size_t>(rng.uniform_int(2, 8));
  cfg.topology_options.fanout = static_cast<std::size_t>(rng.uniform_int(1, 5));
  cfg.topology_options.gossip_seed = rng.next();
  cfg.rounds[0] = static_cast<std::uint64_t>(rng.uniform_int(2, 4));
  cfg.rounds[1] = static_cast<std::uint64_t>(rng.uniform_int(2, 4));
  const std::uint64_t total = cfg.rounds[0] + cfg.rounds[1];

  net::FaultPlan& plan = cfg.plan;
  plan.seed = rng.bernoulli(0.8) ? rng.next() : 0;
  if (rng.bernoulli(0.5)) plan.link.drop_probability = rng.uniform(0.05, 0.4);
  if (rng.bernoulli(0.3)) plan.duplicate_probability = rng.uniform(0.1, 0.6);
  if (rng.bernoulli(0.3)) plan.delay_s = rng.uniform(0.0005, 0.002);
  if (rng.bernoulli(0.4)) plan.jitter_s = rng.uniform(0.001, 0.006);
  if (rng.bernoulli(0.25)) {
    net::PartitionWindow w;
    w.from_round = static_cast<std::uint64_t>(rng.uniform_int(0, 2));
    w.until_round = w.from_round +
                    static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    for (std::size_t a = 0; a < cfg.agents; ++a) {
      if (rng.bernoulli(0.4)) w.group.push_back(static_cast<net::AgentId>(a));
    }
    if (w.group.empty()) w.group.push_back(0);
    plan.partitions.push_back(w);
  }

  ExchangePolicy& policy = cfg.policy;
  if (rng.bernoulli(0.4)) policy.round_deadline_s = rng.uniform(0.003, 0.008);
  if (rng.bernoulli(0.3)) policy.quorum_fraction = rng.uniform(0.2, 0.9);
  policy.hub_retries = static_cast<std::size_t>(rng.uniform_int(0, 3));
  policy.retry_backoff_s = rng.uniform(0.0, 0.002);
  if (rng.bernoulli(0.3)) {
    policy.failures.stragglers.push_back(
        {.agent = static_cast<net::AgentId>(
             rng.uniform_int(0, static_cast<std::int64_t>(cfg.agents) - 1)),
         .compute_delay_s = rng.uniform(0.001, 0.01)});
  }
  if (rng.bernoulli(0.45)) {
    net::CrashWindow w;
    // The hub now and then, so a star loses its relay.
    w.agent = rng.bernoulli(0.3)
                  ? 0
                  : static_cast<net::AgentId>(rng.uniform_int(
                        0, static_cast<std::int64_t>(cfg.agents) - 1));
    if (rng.bernoulli(0.5)) {  // spans the two sessions
      w.from_round = cfg.rounds[0] - 1;
      w.until_round = cfg.rounds[0] + 1;
    } else {
      w.from_round = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
      w.until_round = w.from_round +
                      static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    }
    policy.failures.crashes.push_back(w);
  }
  cfg.secure = plan.reliable() && rng.bernoulli(0.5);
  cfg.in_place = rng.bernoulli(0.5);
  cfg.odd_shape = rng.bernoulli(0.15);
  return cfg;
}

/// Items and their parameter buffers: agent a owns type t with a
/// probability that falls with t, so groups are uneven and some agents
/// own nothing. Items are sorted by agent, as the sharded engine needs.
struct Population {
  std::vector<std::vector<double>> params;
  std::vector<ExchangeItem> items;
  std::size_t shared_len(std::size_t i) const {
    return in_place ? params[i].size() - 2 : params[i].size();
  }
  bool in_place = false;

  Population(const Config& cfg, std::uint64_t seed) : in_place(cfg.in_place) {
    util::Rng rng(seed);
    constexpr std::size_t kLen[] = {7, 19, 35};
    constexpr double kOwn[] = {0.95, 0.6, 0.35};
    for (std::size_t a = 0; a < cfg.agents; ++a) {
      for (std::size_t t = 0; t < cfg.types; ++t) {
        if (!rng.bernoulli(kOwn[t])) continue;
        std::size_t len = kLen[t];
        if (cfg.odd_shape && a == 1 && t == 0) ++len;  // shape guard
        // Magnitudes differ by agent, so the sum's order shows in bits.
        const double scale = a % 3 == 0 ? 1e6 : (a % 3 == 1 ? 1.0 : 1e-6);
        std::vector<double> p(len);
        for (double& v : p) v = scale * rng.normal();
        params.push_back(std::move(p));
        items.push_back({.agent = static_cast<net::AgentId>(a),
                         .device_type = static_cast<std::uint32_t>(t),
                         .send = {},
                         .in_place = {}});
      }
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::span<double> span(params[i]);
      items[i].send = span.first(shared_len(i));
      if (in_place) items[i].in_place = span;
    }
  }

  // Local training stand-in: a pure function of (round, item, index).
  void local_step(std::size_t i, std::uint64_t round) {
    for (std::size_t k = 0; k < params[i].size(); ++k) {
      const std::uint64_t g =
          net::detail::mix64((round << 40) ^ (i << 20) ^ k);
      params[i][k] = params[i][k] * 0.999 +
                     static_cast<double>(g >> 40) * 1e-9;
    }
  }

  std::uint64_t hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto& p : params) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(p.data());
      for (std::size_t k = 0; k < p.size() * sizeof(double); ++k) {
        h = (h ^ bytes[k]) * 1099511628211ULL;
      }
    }
    return h;
  }
};

struct Pinned {
  std::uint64_t hash = 0;
  /// BusStats: sent, delivered, dropped, partition_dropped, duplicated,
  /// delayed, bytes_on_wire, logical_bytes.
  std::uint64_t bus[8] = {};
  /// BusStats: simulated_transfer_seconds, simulated_fault_delay_seconds.
  double seconds[2] = {};
  /// ExchangeStats: accepted, rejected, relayed, items_averaged,
  /// params_averaged, payload_allocations, duplicates, stale_msgs,
  /// late_msgs, quorum_met, quorum_missed, local_fallbacks,
  /// crashed_items, retries.
  std::uint64_t exchange[14] = {};
  /// ShardRouterStats: messages_batched, batches_flushed, flushes,
  /// batched_bytes, batched_wire_bytes, max_batch_depth.
  std::uint64_t router[6] = {};
};

void add(std::uint64_t (&sum)[14], const ExchangeStats& s) {
  const std::uint64_t v[14] = {
      s.accepted,      s.rejected,           s.relayed,
      s.items_averaged, s.params_averaged,   s.payload_allocations,
      s.duplicates,    s.stale_msgs,         s.late_msgs,
      s.quorum_met,    s.quorum_missed,      s.local_fallbacks,
      s.crashed_items, s.retries};
  for (std::size_t k = 0; k < 14; ++k) sum[k] += v[k];
}

Pinned run(std::size_t c) {
  const Config cfg = make_config(c);
  Population pop(cfg, 0xBEEFULL + c);
  net::MessageBus bus(
      net::Topology(cfg.kind, cfg.agents, cfg.topology_options), cfg.plan);
  net::ShardRouter router(cfg.agents, cfg.shards);
  const bool sharded = cfg.shards > 1;
  if (sharded) bus.set_shard_router(&router);
  const SecureAggregator aggregator;
  ParamExchange::Options options;
  options.secure = cfg.secure ? &aggregator : nullptr;
  options.policy = cfg.policy;
  const ParamExchange::CommitFn commit =
      [&](std::size_t i, std::span<const double> averaged) {
        if (pop.in_place) return;  // already landed in the live span
        std::copy(averaged.begin(), averaged.end(), pop.params[i].begin());
      };

  Pinned out;
  std::uint64_t first = 0;
  util::ThreadPool pool(cfg.workers);
  for (const std::uint64_t rounds : cfg.rounds) {
    if (cfg.driver == Driver::kSequential) {
      ParamExchange exchange(bus, options);
      for (std::uint64_t r = first; r < first + rounds; ++r) {
        for (std::size_t i = 0; i < pop.items.size(); ++i) pop.local_step(i, r);
        add(out.exchange, exchange.round(pop.items, r, commit));
      }
    } else {
      StagedExchange staged(bus, options, pop.items);
      std::vector<std::size_t> begin(staged.num_shards() + 1, pop.items.size());
      begin[0] = 0;
      for (std::size_t s = 1, i = 0; s < staged.num_shards(); ++s) {
        while (i < pop.items.size() && router.shard_of(pop.items[i].agent) < s) {
          ++i;
        }
        begin[s] = i;
      }
      RoundPipeline pipe(
          shard_broadcast_graph(bus.topology(), sharded ? &router : nullptr));
      RoundPipeline::Ops ops;
      ops.compute = [&](std::size_t s, std::uint64_t r) {
        for (std::size_t i = begin[s]; i < begin[s + 1]; ++i) {
          pop.local_step(i, r);
        }
      };
      ops.publish = [&](std::size_t s, std::uint64_t r) {
        staged.publish_shard(s, r);
      };
      if (staged.has_hub()) {
        ops.hub = [&](std::uint64_t r) { staged.hub_step(r); };
      }
      ops.apply = [&](std::size_t s, std::uint64_t r) {
        staged.apply_shard(s, r, commit);
      };
      pipe.run(pool, first, rounds, ops);
      add(out.exchange, staged.stats());
    }
    first += rounds;
  }

  out.hash = pop.hash();
  const net::BusStats b = bus.stats();
  const std::uint64_t bus_fields[8] = {
      b.messages_sent,       b.messages_delivered,
      b.messages_dropped,    b.messages_partition_dropped,
      b.messages_duplicated, b.messages_delayed,
      b.bytes_on_wire,       b.logical_bytes};
  std::copy(std::begin(bus_fields), std::end(bus_fields), out.bus);
  out.seconds[0] = b.simulated_transfer_seconds;
  out.seconds[1] = b.simulated_fault_delay_seconds;
  const net::ShardRouterStats rs = router.stats();
  const std::uint64_t router_fields[6] = {
      rs.messages_batched, rs.batches_flushed,    rs.flushes,
      rs.batched_bytes,    rs.batched_wire_bytes, rs.max_batch_depth};
  std::copy(std::begin(router_fields), std::end(router_fields), out.router);
  return out;
}

void print_row(std::size_t c, const Pinned& p) {
  std::printf("    {0x%016llxULL,\n     {", static_cast<unsigned long long>(p.hash));
  for (std::size_t k = 0; k < 8; ++k) {
    std::printf("%s%llu", k ? ", " : "", static_cast<unsigned long long>(p.bus[k]));
  }
  std::printf("},\n     {%.17g, %.17g},\n     {", p.seconds[0], p.seconds[1]);
  for (std::size_t k = 0; k < 14; ++k) {
    std::printf("%s%llu", k ? ", " : "",
                static_cast<unsigned long long>(p.exchange[k]));
  }
  std::printf("},\n     {");
  for (std::size_t k = 0; k < 6; ++k) {
    std::printf("%s%llu", k ? ", " : "",
                static_cast<unsigned long long>(p.router[k]));
  }
  std::printf("}},  // %zu\n", c);
}

// clang-format off
const Pinned kTable[kConfigs] = {
    {0xaf142520b546cb99ULL,
     {59, 879, 65, 0, 0, 0, 57135, 57135},
     {1.762570799999982, 0},
     {760, 0, 0, 59, 295, 59, 0, 13, 0, 59, 0, 0, 1, 0},
     {0, 0, 0, 0, 0, 0}},  // 0
    {0x2a53f05a5650ead2ULL,
     {21, 15, 6, 0, 0, 15, 1791, 1791},
     {0.030143280000000012, 0.025239102398717024},
     {9, 0, 0, 9, 63, 18, 0, 0, 0, 0, 0, 9, 0, 3},
     {0, 0, 0, 0, 0, 0}},  // 1
    {0x24fc561bad2faefaULL,
     {290, 580, 0, 0, 0, 0, 80964, 80964},
     {1.1664771200000057, 0},
     {408, 0, 0, 0, 0, 290, 0, 8, 0, 0, 290, 290, 6, 0},
     {0, 0, 0, 0, 0, 0}},  // 2
    {0x972643cd8e852b98ULL,
     {152, 493, 0, 0, 181, 312, 32045, 32045},
     {0.98856360000000054, 0.23277966018762355},
     {304, 0, 0, 152, 760, 152, 176, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0}},  // 3
    {0x541c2a1fd9974c62ULL,
     {441, 728, 154, 154, 0, 728, 87960, 87960},
     {1.4630368, 2.0312075957496272},
     {584, 0, 0, 309, 3555, 441, 0, 0, 0, 0, 0, 132, 0, 0},
     {0, 0, 0, 0, 0, 0}},  // 4
    {0xaefb33bd518dc28aULL,
     {69, 397, 86, 0, 0, 0, 54621, 54621},
     {0.79836967999999975, 0},
     {292, 0, 0, 60, 732, 69, 0, 10, 0, 60, 9, 9, 1, 0},
     {276, 10, 10, 37972, 35924, 28}},  // 5
    {0xc90294b34e90fe0bULL,
     {3368, 3528, 0, 0, 0, 0, 285768, 285768},
     {7.0788614400004501, 0},
     {3360, 0, 3200, 168, 1176, 168, 0, 0, 0, 168, 0, 0, 0, 0},
     {168, 16, 16, 13608, 12520, 11}},  // 6
    {0x76f34f1ced613e7aULL,
     {100, 231, 44, 0, 75, 156, 22007, 22007},
     {0.46376056000000027, 0.11160964376903622},
     {101, 8, 0, 0, 0, 100, 55, 0, 0, 0, 100, 100, 0, 0},
     {30, 10, 10, 2910, 2830, 3}},  // 7
    {0xb30bccfa85f7801bULL,
     {438, 4536, 0, 0, 0, 4536, 661176, 661176},
     {9.1248940800002334, 8.2577671406075464},
     {3336, 0, 0, 384, 5352, 438, 0, 0, 0, 0, 0, 54, 0, 0},
     {2196, 12, 12, 319956, 302580, 193}},  // 8
    {0x5e0a864b99dd1dc5ULL,
     {24, 40, 8, 8, 0, 0, 3240, 3240},
     {0.080259200000000017, 0},
     {40, 0, 0, 22, 154, 24, 0, 0, 0, 0, 0, 2, 0, 0},
     {32, 16, 16, 2592, 2592, 2}},  // 9
    {0x9c5bd606682d4236ULL,
     {28, 117, 0, 0, 33, 84, 9717, 9717},
     {0.23477736000000007, 0.15650113105610766},
     {60, 0, 0, 22, 110, 28, 24, 13, 0, 22, 6, 6, 2, 0},
     {66, 32, 18, 5442, 5426, 3}},  // 10
    {0xe1ffad1156357bebULL,
     {90, 82, 32, 0, 0, 82, 7850, 7850},
     {0.164628, 0.16286095587932839},
     {31, 11, 46, 25, 245, 36, 0, 0, 32, 0, 0, 11, 0, 8},
     {60, 24, 18, 6252, 6156, 4}},  // 11
    {0x55e1e8d43c0dd5c6ULL,
     {54, 139, 0, 0, 31, 0, 9179, 9179},
     {0.27873432000000031, 0},
     {76, 28, 0, 45, 225, 54, 30, 5, 0, 0, 0, 9, 2, 0},
     {42, 42, 21, 2786, 3122, 1}},  // 12
    {0xff06ac220eeadde7ULL,
     {126, 312, 11, 0, 41, 0, 34872, 34872},
     {0.62678975999999975, 0},
     {184, 0, 0, 92, 952, 126, 25, 0, 0, 0, 0, 34, 0, 0},
     {144, 36, 18, 15120, 14544, 9}},  // 13
    {0xeb5ccaac7100e377ULL,
     {24, 24, 0, 0, 0, 24, 3864, 3864},
     {0.048309120000000004, 0.04242815021123935},
     {12, 0, 0, 12, 84, 24, 0, 0, 0, 0, 0, 12, 0, 0},
     {24, 12, 12, 3864, 3864, 3}},  // 14
    {0xc442eea63ef23b2aULL,
     {150, 4150, 650, 0, 0, 0, 336150, 336150},
     {8.3268920000006776, 0},
     {3750, 0, 0, 150, 1050, 150, 0, 0, 0, 150, 0, 0, 0, 0},
     {4325, 280, 40, 350325, 320205, 20}},  // 15
    {0xbffd1fd37b4a9601ULL,
     {7408, 7600, 0, 0, 0, 0, 762800, 762800},
     {15.261023999999136, 0},
     {5872, 0, 7104, 304, 2864, 304, 0, 0, 0, 304, 0, 0, 0, 0},
     {464, 112, 64, 40144, 38224, 6}},  // 16
    {0x16c6ce108925843eULL,
     {28, 65, 9, 0, 18, 47, 5569, 5569},
     {0.13044551999999995, 0.181916218128163},
     {14, 9, 0, 12, 60, 28, 1, 11, 23, 0, 0, 16, 2, 0},
     {56, 46, 25, 4680, 4968, 2}},  // 17
    {0x5da4fe5ac5d0bbbeULL,
     {108, 713, 0, 0, 0, 0, 57753, 57753},
     {1.430620239999989, 0},
     {646, 0, 0, 103, 721, 108, 0, 2, 0, 0, 0, 5, 2, 0},
     {598, 280, 40, 48438, 48134, 4}},  // 18
    {0xf35ecc9805d31688ULL,
     {281, 1124, 0, 0, 0, 1124, 116836, 116836},
     {2.2573468800000223, 3.8569407028035183},
     {947, 0, 0, 275, 2671, 281, 0, 5, 0, 0, 0, 6, 1, 0},
     {1004, 288, 48, 104428, 101004, 12}},  // 19
    {0xdf86c5f27a4d27c0ULL,
     {444, 15881, 5080, 1150, 4533, 0, 2407865, 2407865},
     {31.954629200000269, 0},
     {8486, 0, 0, 444, 7020, 444, 3397, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0}},  // 20
    {0x92d1e9ee95848d03ULL,
     {5922, 8749, 0, 0, 2629, 6120, 708669, 708669},
     {17.554693520001333, 25.31265687792034},
     {5220, 0, 5742, 180, 1260, 180, 2241, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0}},  // 21
    {0x20a773334ee9363aULL,
     {144, 445, 0, 0, 157, 288, 47837, 47837},
     {0.89382695999999973, 1.0215047852685311},
     {192, 0, 0, 0, 0, 144, 56, 16, 143, 0, 144, 144, 6, 0},
     {0, 0, 0, 0, 0, 0}},  // 22
    {0x75266e8b94558f7bULL,
     {241, 402, 177, 177, 0, 402, 64306, 64306},
     {0.80914448000000039, 0.6213523703894096},
     {306, 0, 0, 0, 0, 241, 0, 14, 0, 0, 241, 241, 4, 0},
     {0, 0, 0, 0, 0, 0}},  // 23
    {0xe8e729015e7b8274ULL,
     {55, 165, 0, 0, 0, 165, 10725, 10725},
     {0.3308580000000001, 0.10171984205549467},
     {165, 0, 0, 55, 275, 55, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0}},  // 24
    {0xe56f078e381601ecULL,
     {56, 320, 184, 0, 0, 320, 31072, 31072},
     {0.64248576000000057, 0.52756884741927768},
     {238, 0, 0, 56, 520, 56, 0, 0, 0, 0, 0, 0, 0, 0},
     {280, 8, 8, 27800, 25688, 40}},  // 25
    {0x9565058f8018991cULL,
     {9762, 13125, 0, 0, 2859, 10266, 2055221, 2055221},
     {26.414417679999797, 8.3313815951952641},
     {7596, 0, 9408, 354, 5814, 354, 2093, 0, 0, 354, 0, 0, 0, 0},
     {444, 12, 12, 78204, 74844, 45}},  // 26
    {0x0edddff6c7f65ca3ULL,
     {64, 108, 45, 0, 25, 83, 8748, 8748},
     {0.21669984000000025, 0.14318491809915623},
     {83, 0, 0, 56, 392, 64, 25, 0, 0, 0, 0, 8, 0, 0},
     {32, 16, 16, 2592, 2592, 2}},  // 27
    {0x24d9177c0c11178fULL,
     {96, 148, 0, 0, 0, 148, 15444, 15444},
     {0.29723551999999964, 0.24931544470536146},
     {52, 0, 0, 26, 182, 96, 0, 0, 73, 0, 0, 70, 0, 0},
     {20, 8, 8, 2004, 1972, 3}},  // 28
    {0x60854cb0b5afa863ULL,
     {276, 900, 204, 204, 0, 0, 118788, 118788},
     {1.8095030400000081, 0},
     {666, 0, 0, 0, 0, 276, 0, 8, 0, 0, 276, 276, 4, 0},
     {511, 10, 10, 63007, 59079, 57}},  // 29
    {0xb9485fe13b04575aULL,
     {216, 7364, 2072, 0, 1876, 5488, 596484, 596484},
     {14.775718720001423, 18.082065900261469},
     {48, 0, 0, 40, 280, 216, 0, 0, 7316, 0, 0, 176, 0, 0},
     {5184, 36, 18, 419904, 379008, 144}},  // 30
    {0x40080af5f3f5e6a4ULL,
     {365, 352, 164, 96, 115, 237, 39200, 39200},
     {0.70713599999999988, 0.15028972589154335},
     {172, 0, 297, 38, 406, 68, 82, 0, 0, 38, 30, 30, 0, 0},
     {84, 16, 12, 7764, 7348, 7}},  // 31
    {0x9551068b4dedadb9ULL,
     {175, 444, 0, 0, 94, 350, 53980, 53980},
     {0.89231840000000129, 0.6495845542935067},
     {280, 0, 0, 161, 1645, 175, 71, 0, 0, 0, 0, 14, 0, 0},
     {77, 42, 21, 8365, 8421, 2}},  // 32
    {0x1608bf2c4a8e100fULL,
     {38, 109, 0, 0, 41, 0, 8829, 8829},
     {0.21870632000000023, 0},
     {61, 0, 0, 5, 35, 38, 38, 3, 7, 5, 33, 33, 2, 0},
     {58, 20, 15, 4698, 4554, 3}},  // 33
    {0x20c220873e096b98ULL,
     {55, 80, 3, 0, 28, 0, 8368, 8368},
     {0.16066943999999994, 0},
     {43, 0, 0, 5, 85, 55, 24, 0, 0, 5, 50, 50, 0, 0},
     {45, 15, 15, 4845, 4725, 4}},  // 34
    {0xdf0d3e14815b4df8ULL,
     {240, 5520, 0, 0, 0, 5520, 720912, 720912},
     {11.097672959999729, 19.769520648055238},
     {3684, 0, 0, 240, 3168, 240, 0, 0, 0, 0, 0, 0, 0, 0},
     {5040, 336, 48, 658224, 623280, 18}},  // 35
    {0xbcfe7fb83c4e7302ULL,
     {4223, 4054, 319, 319, 0, 0, 263510, 263510},
     {8.1290808000003789, 0},
     {3796, 0, 4020, 139, 695, 155, 0, 0, 138, 139, 16, 16, 0, 48},
     {280, 70, 40, 18200, 17080, 4}},  // 36
    {0x329d35c1d88e4d15ULL,
     {63, 107, 19, 0, 0, 107, 10083, 10083},
     {0.21480664000000022, 0.31354902864893225},
     {75, 16, 0, 32, 316, 63, 0, 1, 0, 32, 31, 31, 2, 0},
     {106, 78, 40, 9658, 10058, 2}},  // 37
    {0x9fc5a32877ff5981ULL,
     {374, 860, 0, 0, 0, 0, 131868, 131868},
     {1.730549440000001, 0},
     {608, 0, 0, 280, 3688, 374, 0, 2, 0, 0, 0, 94, 4, 0},
     {648, 156, 48, 97800, 95112, 9}},  // 38
    {0xb177d46275210402ULL,
     {111, 263, 70, 0, 0, 263, 21431, 21431},
     {0.52771447999999799, 0.31708053115074286},
     {234, 21, 0, 0, 0, 111, 0, 0, 0, 0, 111, 111, 3, 0},
     {321, 237, 48, 26145, 27369, 3}},  // 39
};
// clang-format on

TEST(ExchangeEquivalence, SeededConfigurationsMatchPinnedTable) {
  const char* print = std::getenv("PFDRL_EQUIVALENCE_PRINT");
  if (print != nullptr && *print == '1') {
    for (std::size_t c = 0; c < kConfigs; ++c) print_row(c, run(c));
    GTEST_SKIP() << "printed the table instead of checking it";
  }
  for (std::size_t c = 0; c < kConfigs; ++c) {
    SCOPED_TRACE("config " + std::to_string(c));
    const Pinned got = run(c);
    const Pinned& want = kTable[c];
    EXPECT_EQ(got.hash, want.hash);
    for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(got.bus[k], want.bus[k]) << "bus " << k;
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_NEAR(got.seconds[k], want.seconds[k],
                  1e-9 * std::abs(want.seconds[k]))
          << "seconds " << k;
    }
    for (std::size_t k = 0; k < 14; ++k) {
      EXPECT_EQ(got.exchange[k], want.exchange[k]) << "exchange " << k;
    }
    for (std::size_t k = 0; k < 6; ++k) {
      EXPECT_EQ(got.router[k], want.router[k]) << "router " << k;
    }
  }
}

// The table exercises what it claims to: every fault and degradation
// path fires somewhere in it.
TEST(ExchangeEquivalence, TableCoversEveryDegradedPath) {
  std::uint64_t totals[14] = {};
  std::uint64_t bus[8] = {};
  std::uint64_t batched = 0;
  for (const Pinned& p : kTable) {
    for (std::size_t k = 0; k < 14; ++k) totals[k] += p.exchange[k];
    for (std::size_t k = 0; k < 8; ++k) bus[k] += p.bus[k];
    batched += p.router[0];
  }
  EXPECT_GT(totals[1], 0u);   // rejected by the shape guard
  EXPECT_GT(totals[2], 0u);   // relayed
  EXPECT_GT(totals[6], 0u);   // duplicates collapsed
  EXPECT_GT(totals[7], 0u);   // stale crash backlog
  EXPECT_GT(totals[8], 0u);   // late
  EXPECT_GT(totals[9], 0u);   // quorum met
  EXPECT_GT(totals[10], 0u);  // quorum missed
  EXPECT_GT(totals[12], 0u);  // crashed items
  EXPECT_GT(totals[13], 0u);  // hub retries
  EXPECT_GT(bus[2], 0u);      // drops
  EXPECT_GT(bus[3], 0u);      // partition drops
  EXPECT_GT(bus[4], 0u);      // duplicated
  EXPECT_GT(bus[5], 0u);      // delayed
  EXPECT_GT(batched, 0u);     // cross-shard traffic
}

}  // namespace
}  // namespace pfdrl::fl
