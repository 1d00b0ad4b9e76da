// Data-race stress for the round engine: repeated fl::RoundPipeline
// segments driving fl::StagedExchange double buffers on a 4-worker pool,
// so the per-(shard, round) readiness counters, the continuation
// handoff, the star hub step and the frozen-inbox/live-compute buffer
// split all run under maximum scheduler pressure — on clean and on lossy
// (drop, duplication, jitter) plans. Built with -fsanitize=thread (see
// tests/CMakeLists.txt); a clean exit 0 is the pass signal. Every
// pipelined repetition must reproduce the hash of the sequential
// one-round driver (fl::ParamExchange::round) bitwise, so the checks
// double as a lost-update / double-apply / schedule-dependent-fate
// detector when the binary is run without TSan.
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "fl/exchange.hpp"
#include "fl/round_pipeline.hpp"
#include "net/bus.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pfdrl;

constexpr std::size_t kAgents = 32;
constexpr std::size_t kShards = 8;
constexpr std::size_t kParams = 16;
constexpr std::size_t kRounds = 10;
constexpr int kReps = 8;
constexpr std::uint64_t kSeed = 42;

std::uint64_t fnv1a(const std::vector<double>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// One engine instance: bus + router + parameter arena, identical for
/// the sequential reference and every pipelined repetition.
struct Setup {
  net::MessageBus bus;
  net::ShardRouter router;
  std::vector<double> params;
  std::vector<fl::ExchangeItem> items;

  Setup(const net::Topology& topology, const net::FaultPlan& fault)
      : bus(topology, fault),
        router(kAgents, kShards),
        params(kAgents * kParams),
        items(kAgents) {
    bus.set_shard_router(&router);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] =
          static_cast<double>(net::detail::mix64(kSeed ^ i) >> 40) * 1e-6;
    }
    for (std::size_t a = 0; a < kAgents; ++a) {
      const std::span<double> slice(params.data() + a * kParams, kParams);
      items[a] = {.agent = static_cast<net::AgentId>(a),
                  .device_type = 0,
                  .send = slice,
                  .in_place = slice};
    }
  }

  // Pure function of (seed, round, agent) — schedule-independent.
  void local_step(std::size_t a, std::uint64_t r) {
    for (std::size_t i = 0; i < kParams; ++i) {
      const std::uint64_t g = net::detail::mix64(
          kSeed ^ (r * 1315423911ULL) ^ (a * kParams + i));
      params[a * kParams + i] =
          params[a * kParams + i] * 0.999 + static_cast<double>(g >> 40) * 1e-9;
    }
  }
};

fl::ParamExchange::Options exchange_options() {
  fl::ParamExchange::Options opts;
  opts.kind = net::MessageKind::kForecastParams;
  opts.min_group = 2;
  // With a deadline, injected jitter decides which contributions count.
  opts.policy.round_deadline_s = 0.006;
  return opts;
}

/// Sequential reference: one ParamExchange::round per round, stages in
/// order — the oracle hash every pipelined rep must reproduce bitwise.
std::uint64_t run_sequential(const net::Topology& topology,
                             const net::FaultPlan& fault) {
  Setup setup(topology, fault);
  fl::ParamExchange exchange(setup.bus, exchange_options());
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t a = 0; a < kAgents; ++a) setup.local_step(a, r);
    exchange.round(setup.items, r, [](std::size_t, std::span<const double>) {});
  }
  return fnv1a(setup.params);
}

std::uint64_t run_pipeline(const net::Topology& topology,
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
  pipe.run(util::ThreadPool::global(), 0, kRounds, ops);

  const auto& stats = pipe.stats();
  if (stats.rounds != kRounds || stats.shard_rounds != kRounds * kShards) {
    std::fprintf(stderr, "FATAL: pipeline retired %llu rounds / %llu cells\n",
                 static_cast<unsigned long long>(stats.rounds),
                 static_cast<unsigned long long>(stats.shard_rounds));
    std::exit(1);
  }
  return fnv1a(setup.params);
}

}  // namespace

int main() {
  // 4 workers regardless of the host: the handoff pressure the job is
  // for. Must precede the first ThreadPool::global() touch.
  util::ThreadPool::set_global_workers(4);

  // Hierarchical (sparse shard graph — real overlap, partial readiness
  // targets), full mesh (all-to-all readiness, maximum contention on
  // every counter) and star (the once-per-round hub step).
  const net::Topology topologies[] = {
      net::Topology(net::TopologyKind::kHierarchical, kAgents,
                    net::TopologyOptions{.cluster_size = kAgents / kShards,
                                         .fanout = 3,
                                         .gossip_seed = kSeed}),
      net::Topology(net::TopologyKind::kFullMesh, kAgents),
      net::Topology(net::TopologyKind::kStar, kAgents),
  };
  net::FaultPlan lossy;
  lossy.link.drop_probability = 0.2;
  lossy.duplicate_probability = 0.1;
  lossy.jitter_s = 0.003;
  lossy.seed = kSeed;
  const net::FaultPlan plans[] = {net::FaultPlan{}, lossy};
  int checked = 0;
  for (const net::Topology& topology : topologies) {
    for (const net::FaultPlan& fault : plans) {
      const std::uint64_t oracle = run_sequential(topology, fault);
      for (int rep = 0; rep < kReps; ++rep) {
        const std::uint64_t got = run_pipeline(topology, fault);
        if (got != oracle) {
          std::fprintf(stderr,
                       "FATAL: %s%s rep %d hash %016llx != sequential oracle "
                       "%016llx\n",
                       net::topology_name(topology.kind()),
                       fault.reliable() ? "" : " lossy", rep,
                       static_cast<unsigned long long>(got),
                       static_cast<unsigned long long>(oracle));
          return 1;
        }
        ++checked;
      }
    }
  }
  std::printf("tsan_pipeline_stress: %d pipelined reps (3 topologies x "
              "clean/lossy) matched the sequential oracle — OK\n",
              checked);
  return 0;
}
