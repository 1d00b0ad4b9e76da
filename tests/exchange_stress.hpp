// Shared driver of the sanitizer stress jobs: repeated fl::RoundPipeline
// segments driving fl::StagedExchange at 8 shards on a pool, each
// repetition checked bitwise against the sequential one-round driver
// (fl::ParamExchange::round). Under TSan the board handoff, the shared
// memo and the readiness counters run under maximum scheduler pressure;
// under ASan the board's payload lifetimes do. Without a sanitizer the
// checks still catch a lost update, a double apply or a
// schedule-dependent fate.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "fl/exchange.hpp"
#include "fl/round_pipeline.hpp"
#include "net/bus.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::stress {

inline constexpr std::size_t kAgents = 32;
inline constexpr std::size_t kShards = 8;
inline constexpr std::size_t kParams = 16;
inline constexpr std::size_t kRounds = 10;
inline constexpr std::uint64_t kSeed = 42;

inline std::uint64_t fnv1a(const std::vector<double>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// One engine instance: bus + router + parameter arena, identical for
/// the sequential reference and every pipelined repetition. Two device
/// types per agent, so a full mesh shares two averages per round.
struct Setup {
  static constexpr std::size_t kTypes = 2;
  net::MessageBus bus;
  net::ShardRouter router;
  std::vector<double> params;
  std::vector<fl::ExchangeItem> items;

  Setup(const net::Topology& topology, const net::FaultPlan& fault)
      : bus(topology, fault),
        router(kAgents, kShards),
        params(kAgents * kTypes * kParams) {
    bus.set_shard_router(&router);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] =
          static_cast<double>(net::detail::mix64(kSeed ^ i) >> 40) * 1e-6;
    }
    for (std::size_t a = 0; a < kAgents; ++a) {
      for (std::size_t t = 0; t < kTypes; ++t) {
        const std::span<double> slice(
            params.data() + (a * kTypes + t) * kParams, kParams);
        items.push_back({.agent = static_cast<net::AgentId>(a),
                         .device_type = static_cast<std::uint32_t>(t),
                         .send = slice,
                         .in_place = slice});
      }
    }
  }

  // Pure function of (seed, round, agent) — schedule-independent.
  void local_step(std::size_t a, std::uint64_t r) {
    for (std::size_t i = a * kTypes * kParams; i < (a + 1) * kTypes * kParams;
         ++i) {
      const std::uint64_t g =
          net::detail::mix64(kSeed ^ (r * 1315423911ULL) ^ i);
      params[i] = params[i] * 0.999 + static_cast<double>(g >> 40) * 1e-9;
    }
  }
};

inline fl::ParamExchange::Options exchange_options() {
  fl::ParamExchange::Options opts;
  opts.kind = net::MessageKind::kForecastParams;
  opts.min_group = 2;
  // With a deadline, injected jitter decides which contributions count.
  opts.policy.round_deadline_s = 0.006;
  return opts;
}

/// Sequential reference: one ParamExchange::round per round, stages in
/// order — the oracle hash every pipelined rep must reproduce bitwise.
inline std::uint64_t run_sequential(const net::Topology& topology,
                                    const net::FaultPlan& fault) {
  Setup setup(topology, fault);
  fl::ParamExchange exchange(setup.bus, exchange_options());
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t a = 0; a < kAgents; ++a) setup.local_step(a, r);
    exchange.round(setup.items, r, [](std::size_t, std::span<const double>) {});
  }
  return fnv1a(setup.params);
}

inline std::uint64_t run_pipeline(util::ThreadPool& pool,
                                  const net::Topology& topology,
                                  const net::FaultPlan& fault) {
  Setup setup(topology, fault);
  fl::StagedExchange staged(setup.bus, exchange_options(), setup.items);
  if (staged.num_shards() != kShards) {
    std::fprintf(stderr, "FATAL: staged shard count %zu != %zu\n",
                 staged.num_shards(), kShards);
    std::exit(1);
  }
  fl::RoundPipeline pipe(fl::shard_broadcast_graph(topology, &setup.router));
  fl::RoundPipeline::Ops ops;
  ops.compute = [&](std::size_t s, std::uint64_t r) {
    for (std::size_t a = s * (kAgents / kShards);
         a < (s + 1) * (kAgents / kShards); ++a) {
      setup.local_step(a, r);
    }
  };
  ops.publish = [&](std::size_t s, std::uint64_t r) {
    staged.publish_shard(s, r);
  };
  if (staged.has_hub()) {
    ops.hub = [&](std::uint64_t r) { staged.hub_step(r); };
  }
  ops.apply = [&](std::size_t s, std::uint64_t r) {
    staged.apply_shard(s, r, [](std::size_t, std::span<const double>) {});
  };
  pipe.run(pool, 0, kRounds, ops);

  const auto& stats = pipe.stats();
  if (stats.rounds != kRounds || stats.shard_rounds != kRounds * kShards) {
    std::fprintf(stderr, "FATAL: pipeline retired %llu rounds / %llu cells\n",
                 static_cast<unsigned long long>(stats.rounds),
                 static_cast<unsigned long long>(stats.shard_rounds));
    std::exit(1);
  }
  return fnv1a(setup.params);
}

struct Case {
  net::Topology topology;
  net::FaultPlan fault;
};

/// Run `reps` pipelined repetitions of every case against its
/// sequential oracle. Returns the number of repetitions checked; exits
/// non-zero on the first mismatch.
inline int check_cases(util::ThreadPool& pool, std::span<const Case> cases,
                       int reps) {
  int checked = 0;
  for (const Case& c : cases) {
    const std::uint64_t oracle = run_sequential(c.topology, c.fault);
    for (int rep = 0; rep < reps; ++rep) {
      const std::uint64_t got = run_pipeline(pool, c.topology, c.fault);
      if (got != oracle) {
        std::fprintf(stderr,
                     "FATAL: %s%s rep %d hash %016llx != sequential oracle "
                     "%016llx\n",
                     net::topology_name(c.topology.kind()),
                     c.fault.reliable() ? "" : " lossy", rep,
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(oracle));
        std::exit(1);
      }
      ++checked;
    }
  }
  return checked;
}

/// The three shapes the board must survive: a full mesh (every shard
/// races for the same memo entries), sparse gossip (a shard runs rounds
/// ahead of its slowest reader) and a lossy star (hub retries and
/// relays through the board).
inline std::vector<Case> board_cases() {
  net::FaultPlan lossy;
  lossy.link.drop_probability = 0.2;
  lossy.jitter_s = 0.003;
  lossy.seed = kSeed;
  return {
      {net::Topology(net::TopologyKind::kFullMesh, kAgents), {}},
      {net::Topology(net::TopologyKind::kGossip, kAgents,
                     net::TopologyOptions{.cluster_size = 8,
                                          .fanout = 2,
                                          .gossip_seed = kSeed}),
       {}},
      {net::Topology(net::TopologyKind::kStar, kAgents), lossy},
  };
}

}  // namespace pfdrl::stress
