#include "fl/round_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/shard.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {

// ---------------------------------------------------------------------------
// Shard broadcast graph

std::vector<std::vector<std::uint32_t>> shard_broadcast_graph(
    const net::Topology& topology, const net::ShardRouter* router) {
  const std::size_t shards = router != nullptr ? router->num_shards() : 1;
  const auto shard_of = [router](net::AgentId a) {
    return router != nullptr ? router->shard_of(a) : std::size_t{0};
  };
  std::vector<std::vector<std::uint32_t>> out(shards);
  if (topology.kind() == net::TopologyKind::kFullMesh) {
    // Every shard holds >= 1 agent and every distinct agent pair is an
    // edge, so the shard graph is all-to-all; skip the O(N²) edge walk.
    for (std::size_t s = 0; s < shards; ++s) {
      out[s].resize(shards);
      for (std::size_t d = 0; d < shards; ++d) {
        out[s][d] = static_cast<std::uint32_t>(d);
      }
    }
    return out;
  }
  // Sparse kinds: walk the real edges (O(total degree)).
  std::vector<char> seen(shards * shards, 0);
  const std::size_t n = topology.num_agents();
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t s = shard_of(static_cast<net::AgentId>(a));
    topology.for_each_neighbor(static_cast<net::AgentId>(a),
                               [&](net::AgentId b) {
                                 const std::size_t d = shard_of(b);
                                 seen[s * shards + d] = 1;
                               });
  }
  for (std::size_t s = 0; s < shards; ++s) {
    seen[s * shards + s] = 1;  // self, always — even a shard with no agents
    for (std::size_t d = 0; d < shards; ++d) {
      if (seen[s * shards + d]) out[s].push_back(static_cast<std::uint32_t>(d));
    }
  }
  return out;
}

std::vector<std::vector<std::uint32_t>> self_only_graph(std::size_t shards) {
  std::vector<std::vector<std::uint32_t>> out(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    out[s].push_back(static_cast<std::uint32_t>(s));
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> round_windows(
    std::size_t begin, std::size_t end, std::size_t round_minutes) {
  if (round_minutes == 0) {
    throw std::invalid_argument("round_windows: zero-length rounds");
  }
  std::vector<std::pair<std::size_t, std::size_t>> windows;
  for (std::size_t b = begin; b < end; b += round_minutes) {
    windows.emplace_back(b, std::min(b + round_minutes, end));
  }
  return windows;
}

// ---------------------------------------------------------------------------
// RoundPipeline

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Cumulative stats as `<p>.pipeline.*`: set, not add, so every segment
// can fold the running totals.
void record_pipeline_stats(obs::MetricsRegistry& registry,
                           const std::string& p, const PipelineStats& stats) {
  registry.counter(p + ".pipeline.rounds").set(stats.rounds);
  registry.counter(p + ".pipeline.shard_rounds").set(stats.shard_rounds);
  registry.gauge(p + ".pipeline.depth")
      .set(static_cast<double>(stats.max_rounds_in_flight));
  registry.gauge(p + ".pipeline.stall_seconds").set(stats.stall_seconds);
  registry.gauge(p + ".pipeline.overlap_seconds").set(stats.overlap_seconds);
  registry.gauge(p + ".pipeline.wall_seconds").set(stats.wall_seconds);
}

/// One segment's scheduling state. Readiness counters are the whole
/// synchronization story: ready[s][r] counts publishes (or the hub step)
/// visible to shard s for round r; the increment that reaches the target
/// submits the apply continuation, and the apply chains the shard's next
/// compute. No task ever blocks, so the segment completes on a pool of
/// any size.
struct Segment {
  util::ThreadPool& pool;
  const RoundPipeline::Ops& ops;
  obs::MetricsRegistry* metrics;
  const std::string& prefix;
  const std::vector<std::vector<std::uint32_t>>& out;
  const std::vector<std::uint32_t>& target;
  const std::size_t shards;
  const std::uint64_t first_round;
  const std::size_t rounds;

  std::unique_ptr<std::atomic<std::uint32_t>[]> ready;
  /// Per round: shards published so far (hub runs when all have).
  std::unique_ptr<std::atomic<std::uint32_t>[]> hub_ready;
  std::unique_ptr<std::atomic<std::uint32_t>[]> applies_left;
  std::unique_ptr<std::atomic<std::uint64_t>[]> publish_end_ns;
  /// Compute seconds per (shard, round); one writer each, read when the
  /// round retires.
  std::vector<double> compute_s;
  std::atomic<std::uint64_t> stall_ns{0};

  std::atomic<std::size_t> inflight{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  // Round retirement ordering + depth/overlap bookkeeping, all under one
  // mutex (touched once per shard-round, not per job).
  std::mutex progress_mutex;
  std::vector<char> round_complete;
  std::size_t next_done = 0;      ///< next round index to retire
  std::size_t top_entered = 0;    ///< 1 + highest round index started
  std::size_t prev_depth = 0;
  std::uint64_t depth_mark_ns = 0;
  std::size_t max_depth = 1;
  double overlap_s = 0.0;
  std::uint64_t last_retire_ns = 0;

  Segment(util::ThreadPool& p, const RoundPipeline::Ops& o,
          obs::MetricsRegistry* m, const std::string& metric_prefix,
          const std::vector<std::vector<std::uint32_t>>& out_neighbors,
          const std::vector<std::uint32_t>& targets, std::uint64_t first,
          std::size_t count)
      : pool(p),
        ops(o),
        metrics(m),
        prefix(metric_prefix),
        out(out_neighbors),
        target(targets),
        shards(out_neighbors.size()),
        first_round(first),
        rounds(count),
        ready(new std::atomic<std::uint32_t>[shards * count]),
        hub_ready(new std::atomic<std::uint32_t>[count]),
        applies_left(new std::atomic<std::uint32_t>[count]),
        publish_end_ns(new std::atomic<std::uint64_t>[shards * count]),
        compute_s(shards * count, 0.0),
        round_complete(count, 0),
        depth_mark_ns(now_ns()),
        last_retire_ns(depth_mark_ns) {
    for (std::size_t i = 0; i < shards * count; ++i) {
      ready[i].store(0, std::memory_order_relaxed);
      publish_end_ns[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t r = 0; r < count; ++r) {
      hub_ready[r].store(0, std::memory_order_relaxed);
      applies_left[r].store(static_cast<std::uint32_t>(shards),
                            std::memory_order_relaxed);
    }
  }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard lock(error_mutex);
      if (!error) error = std::move(e);
    }
    failed.store(true, std::memory_order_release);
  }

  template <typename Fn>
  void spawn(Fn&& fn) {
    inflight.fetch_add(1, std::memory_order_relaxed);
    pool.submit_detached([this, f = std::forward<Fn>(fn)]() mutable {
      if (!failed.load(std::memory_order_acquire)) {
        try {
          f();
        } catch (...) {
          fail(std::current_exception());
        }
      }
      if (inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(done_mutex);
        done_cv.notify_all();
      }
    });
  }

  void update_depth_locked() {
    const std::uint64_t now = now_ns();
    if (prev_depth >= 2) {
      overlap_s += static_cast<double>(now - depth_mark_ns) * 1e-9;
    }
    depth_mark_ns = now;
    const std::size_t depth =
        top_entered > next_done ? top_entered - next_done : 0;
    prev_depth = depth;
    if (depth > max_depth) max_depth = depth;
  }

  /// compute + publish for cell (s, ri), then notify the hub or the
  /// out-neighbors.
  void step(std::size_t s, std::size_t ri) {
    {
      std::lock_guard lock(progress_mutex);
      if (ri + 1 > top_entered) {
        top_entered = ri + 1;
        update_depth_locked();
      }
    }
    const std::uint64_t r = first_round + ri;
    const std::uint64_t compute_start = now_ns();
    ops.compute(s, r);
    compute_s[s * rounds + ri] =
        static_cast<double>(now_ns() - compute_start) * 1e-9;
    if (ops.publish) ops.publish(s, r);
    publish_end_ns[s * rounds + ri].store(now_ns(), std::memory_order_relaxed);
    if (ops.hub) {
      if (hub_ready[ri].fetch_add(1) + 1 == shards) {
        spawn([this, ri] { hub_cell(ri); });
      }
      return;
    }
    for (const std::uint32_t d : out[s]) notify(d, ri);
  }

  void hub_cell(std::size_t ri) {
    ops.hub(first_round + ri);
    for (std::size_t d = 0; d < shards; ++d) notify(d, ri);
  }

  void notify(std::size_t d, std::size_t ri) {
    // seq_cst RMW chain: the publisher's payload writes happen-before the
    // final increment, which happens-before the apply task it submits.
    const std::uint32_t want = ops.hub ? 1 : target[d];
    if (ready[d * rounds + ri].fetch_add(1) + 1 == want) {
      spawn([this, d, ri] { apply_cell(d, ri); });
    }
  }

  void apply_cell(std::size_t s, std::size_t ri) {
    const std::uint64_t r = first_round + ri;
    const std::uint64_t start = now_ns();
    const std::uint64_t published =
        publish_end_ns[s * rounds + ri].load(std::memory_order_relaxed);
    if (published != 0 && start > published) {
      stall_ns.fetch_add(start - published, std::memory_order_relaxed);
    }
    if (ops.apply) ops.apply(s, r);
    if (applies_left[ri].fetch_sub(1) == 1) retire_round(ri);
    // Chain the shard's next round inline — the worker already holds the
    // freshest cache lines for this shard's state.
    if (ri + 1 < rounds && !failed.load(std::memory_order_acquire)) {
      step(s, ri + 1);
    }
  }

  void retire_round(std::size_t ri) {
    std::lock_guard lock(progress_mutex);
    round_complete[ri] = 1;
    while (next_done < rounds && round_complete[next_done]) {
      const std::uint64_t r = first_round + next_done;
      if (metrics != nullptr) record_round_locked(next_done);
      ++next_done;
      update_depth_locked();
      if (ops.round_done) ops.round_done(r);
    }
  }

  void record_round_locked(std::size_t ri) {
    const std::uint64_t now = now_ns();
    const double seconds = static_cast<double>(now - last_retire_ns) * 1e-9;
    last_retire_ns = now;
    metrics->counter(prefix + ".rounds").add(1);
    metrics->histogram(prefix + ".round_seconds").observe(seconds);
    metrics->series(prefix + ".round_seconds_series").append(seconds);
    if (shards > 1) {
      util::ShardTiming timing;
      for (std::size_t s = 0; s < shards; ++s) {
        timing.shard_seconds.push_back(compute_s[s * rounds + ri]);
      }
      obs::record_shard_timing(*metrics, prefix + ".shard", timing);
    }
  }
};

}  // namespace

RoundPipeline::RoundPipeline(
    std::vector<std::vector<std::uint32_t>> out_neighbors,
    obs::MetricsRegistry* metrics, std::string prefix)
    : out_(std::move(out_neighbors)),
      metrics_(metrics),
      prefix_(std::move(prefix)) {
  if (out_.empty()) throw std::invalid_argument("RoundPipeline: zero shards");
  target_.assign(out_.size(), 0);
  for (std::size_t s = 0; s < out_.size(); ++s) {
    auto& row = out_[s];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    bool has_self = false;
    for (const std::uint32_t d : row) {
      if (d >= out_.size()) {
        throw std::out_of_range("RoundPipeline: bad neighbor shard");
      }
      if (d == s) has_self = true;
      ++target_[d];
    }
    if (!has_self) {
      throw std::invalid_argument(
          "RoundPipeline: a shard must be its own out-neighbor (it applies "
          "its own publish)");
    }
  }
}

void RoundPipeline::run(util::ThreadPool& pool, std::uint64_t first_round,
                        std::size_t rounds, const Ops& ops) {
  if (rounds == 0) return;
  if (!ops.compute) throw std::invalid_argument("RoundPipeline: missing op");
  const std::uint64_t wall_start = now_ns();
  Segment seg(pool, ops, metrics_, prefix_, out_, target_, first_round,
              rounds);
  for (std::size_t s = 0; s < out_.size(); ++s) {
    seg.spawn([&seg, s] { seg.step(s, 0); });
  }
  {
    std::unique_lock lock(seg.done_mutex);
    seg.done_cv.wait(lock, [&seg] {
      return seg.inflight.load(std::memory_order_acquire) == 0;
    });
  }
  if (seg.error) std::rethrow_exception(seg.error);

  stats_.rounds += rounds;
  stats_.shard_rounds += out_.size() * rounds;
  if (seg.max_depth > stats_.max_rounds_in_flight) {
    stats_.max_rounds_in_flight = seg.max_depth;
  }
  stats_.stall_seconds +=
      static_cast<double>(seg.stall_ns.load(std::memory_order_relaxed)) *
      1e-9 / static_cast<double>(out_.size());
  stats_.overlap_seconds += seg.overlap_s;
  stats_.wall_seconds += static_cast<double>(now_ns() - wall_start) * 1e-9;
  if (metrics_ != nullptr) record_pipeline_stats(*metrics_, prefix_, stats_);
}

}  // namespace pfdrl::fl
