// Data-race stress for the sharded message layer: concurrent
// broadcasts parking cross-shard messages in the net::ShardRouter's pair
// batches, a racing flusher handing them over to the bus inboxes, racing
// drainers, and util::sharded_for dispatches recording shard timings into
// a shared metrics registry. Built with -fsanitize=thread (see
// tests/CMakeLists.txt); a clean exit 0 is the pass signal. The count
// checks at the end double as a lost-update detector when the binary is
// run without TSan.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/bus.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/shard.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace pfdrl;

  constexpr std::size_t kAgents = 24;
  constexpr std::size_t kShards = 4;
  constexpr int kRounds = 40;
  constexpr std::size_t kParams = 16;

  net::MessageBus bus(
      net::Topology(net::TopologyKind::kFullMesh, kAgents), {});
  net::ShardRouter router(kAgents, kShards);
  bus.set_shard_router(&router);

  obs::MetricsRegistry reg;
  util::ThreadPool pool(4);

  // Phase 1: one producer thread per shard broadcasting its shard's
  // agents, racing a flusher (cross-shard mailbox handoff) and drainers.
  // Every bus/router entry point here is part of the thread-safety
  // contract the sharded engine relies on.
  std::atomic<std::uint64_t> broadcasts{0};
  std::atomic<std::uint64_t> flushed{0};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<bool> producing{true};
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kShards; ++s) {
      threads.emplace_back([&, s] {
        const std::size_t first = util::shard_begin(s, kAgents, kShards);
        const std::size_t last = util::shard_begin(s + 1, kAgents, kShards);
        for (int r = 0; r < kRounds; ++r) {
          for (std::size_t a = first; a < last; ++a) {
            net::Message msg;
            msg.sender = static_cast<net::AgentId>(a);
            msg.round = static_cast<std::uint64_t>(r);
            msg.payload = std::vector<double>(kParams, static_cast<double>(a));
            bus.broadcast(msg);
            broadcasts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    threads.emplace_back([&] {  // flusher
      while (producing.load(std::memory_order_acquire) ||
             router.pending() > 0) {
        for (std::size_t s = 0; s < kShards; ++s) {
          flushed.fetch_add(bus.flush_shard_batches_from(s),
                            std::memory_order_relaxed);
        }
        (void)router.stats();
      }
    });
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {  // drainers
        for (int i = 0; i < kRounds * 8; ++i) {
          const auto agent =
              static_cast<net::AgentId>((t * 7 + i) % kAgents);
          drained.fetch_add(bus.drain(agent).size(),
                            std::memory_order_relaxed);
          (void)bus.inbox_size(agent);
        }
      });
    }
    for (std::size_t i = 0; i < kShards; ++i) threads[i].join();
    producing.store(false, std::memory_order_release);
    for (std::size_t i = kShards; i < threads.size(); ++i) threads[i].join();
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    flushed.fetch_add(bus.flush_shard_batches_from(s),
                      std::memory_order_relaxed);
  }
  for (std::size_t a = 0; a < kAgents; ++a) {
    drained.fetch_add(bus.drain(static_cast<net::AgentId>(a)).size(),
                      std::memory_order_relaxed);
  }

  // Phase 2: sharded dispatches racing metric folds on a shared registry.
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
        });
    obs::record_shard_timing(reg, "stress.shard", timing);
    obs::record_shard_router_stats(reg, "stress.bus", router.stats());
    if (visited.load() != kAgents * 8) {
      std::fprintf(stderr, "FATAL: sharded_for lost items\n");
      return 1;
    }
  }

  // Clean full-mesh plan: every broadcast reaches all N-1 peers, parked
  // or not, and everything parked must eventually flush and drain.
  const std::uint64_t expected =
      broadcasts.load() * (kAgents - 1);
  if (drained.load() != expected) {
    std::fprintf(stderr, "FATAL: delivered %llu of %llu messages\n",
                 static_cast<unsigned long long>(drained.load()),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  const auto stats = router.stats();
  if (stats.messages_batched != flushed.load()) {
    std::fprintf(stderr, "FATAL: router batched %llu but flushed %llu\n",
                 static_cast<unsigned long long>(stats.messages_batched),
                 static_cast<unsigned long long>(flushed.load()));
    return 1;
  }
  std::printf("tsan_shard_stress: %llu broadcasts, %llu cross-shard "
              "handoffs, %llu drained — OK\n",
              static_cast<unsigned long long>(broadcasts.load()),
              static_cast<unsigned long long>(flushed.load()),
              static_cast<unsigned long long>(drained.load()));
  return 0;
}
