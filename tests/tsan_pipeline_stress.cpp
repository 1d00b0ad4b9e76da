// Data-race stress for the round engine: repeated fl::RoundPipeline
// segments driving fl::StagedExchange on a 4-worker pool, so the
// per-(shard, round) readiness counters, the continuation handoff, the
// star hub step and the per-round board all run under maximum scheduler
// pressure — on clean and on lossy (drop, duplication, jitter) plans.
// Built with -fsanitize=thread (see tests/CMakeLists.txt); a clean exit
// 0 is the pass signal. Every
// pipelined repetition must reproduce the hash of the sequential
// one-round driver (fl::ParamExchange::round) bitwise, so the checks
// double as a lost-update / double-apply / schedule-dependent-fate
// detector when the binary is run without TSan.
#include <cstdio>
#include <vector>

#include "exchange_stress.hpp"

int main() {
  using namespace pfdrl;
  using namespace pfdrl::stress;
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
  std::vector<Case> cases;
  for (const net::Topology& topology : topologies) {
    for (const net::FaultPlan& fault : {net::FaultPlan{}, lossy}) {
      cases.push_back({topology, fault});
    }
  }
  const int checked =
      check_cases(util::ThreadPool::global(), cases, /*reps=*/8);
  std::printf("tsan_pipeline_stress: %d pipelined reps (3 topologies x "
              "clean/lossy) matched the sequential oracle — OK\n",
              checked);
  return 0;
}
