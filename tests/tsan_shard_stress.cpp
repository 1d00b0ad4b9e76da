// Data-race stress for the sharded exchange: the per-round board and
// the shared-average memo under fl::RoundPipeline at 4 workers and 8
// shards (tests/exchange_stress.hpp), plus util::sharded_for dispatches
// recording shard timings and router counters into a shared metrics
// registry. Built with -fsanitize=thread (see tests/CMakeLists.txt); a
// clean exit 0 is the pass signal. Every pipelined repetition must
// reproduce the sequential driver's hash, and the count checks double as
// a lost-update detector when the binary is run without TSan.
#include <atomic>
#include <cstdio>
#include <vector>

#include "exchange_stress.hpp"
#include "obs/metrics.hpp"
#include "util/shard.hpp"

int main() {
  using namespace pfdrl;
  constexpr std::size_t kAgents = 24;
  constexpr std::size_t kShards = 4;

  obs::MetricsRegistry reg;
  util::ThreadPool pool(4);

  // Phase 1: the board and the memo. A full mesh makes every shard race
  // for the same memo entries, gossip lets a shard run rounds ahead of
  // its slowest reader, and a lossy star retries and relays through the
  // board.
  const std::vector<stress::Case> cases = stress::board_cases();
  const int checked = stress::check_cases(pool, cases, /*reps=*/6);

  // Phase 2: sharded dispatches billing router publishes and racing
  // metric folds on a shared registry.
  net::ShardRouter router(kAgents, kShards);
  const net::PairLoad load[] = {{0, 0}, {1, 8}};
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::uint64_t> visited{0};
    const util::ShardTiming timing = util::sharded_for(
        pool, kAgents * 8, kShards,
        [&](std::size_t i) {
          return util::shard_of(i, kAgents * 8, kShards);
        },
        [&](std::size_t) {
          visited.fetch_add(1, std::memory_order_relaxed);
          reg.counter("stress.shard_visits").add();
          router.bill_publish(load);
        });
    obs::record_shard_timing(reg, "stress.shard", timing);
    obs::record_shard_router_stats(reg, "stress.bus", router.stats());
    if (visited.load() != kAgents * 8) {
      std::fprintf(stderr, "FATAL: sharded_for lost items\n");
      return 1;
    }
  }

  if (router.stats().flushes != 10 * kAgents * 8 ||
      router.stats().messages_batched != 10 * kAgents * 8) {
    std::fprintf(stderr, "FATAL: router lost a publish\n");
    return 1;
  }
  std::printf("tsan_shard_stress: %d pipelined reps (mesh, gossip, lossy "
              "star) matched the sequential oracle — OK\n",
              checked);
  return 0;
}
