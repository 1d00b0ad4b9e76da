// The round engine: one dependency-driven scheduler for both of the
// paper's federation loops — the DFL β forecast rounds (fl::DflTrainer)
// and the DRL γ rounds (core::EmsPipeline).
//
// A round is four ops per shard: compute (local training), publish
// (broadcast the shard's parameters and flush its router row), an
// optional hub step (the star topology's relay, once per round), and
// apply (drain, aggregate, commit). RoundPipeline runs them on
// per-(shard, round) readiness counters derived from the broadcast
// topology: shard s advances to round r+1 the moment its own round-r
// apply is done, and apply(s, r) fires the moment every in-neighbor
// shard (self included) has published round r — delivered as a
// continuation on the pool (util::ThreadPool::submit_detached), never as
// a blocking wait, so the pipeline runs correctly even on a
// single-worker pool. Fast shards overlap round r+1 compute with slow
// shards' round-r aggregation; the only full barrier is the segment
// boundary the caller chooses (snapshot cadence). An unsharded run is
// one shard. Determinism is unaffected by the schedule: every shard
// consumes exactly the same per-round neighbor payload set in the same
// pinned sort order, and fault draws are pure functions of the delivery,
// so param hashes match bitwise at any worker count and shard count
// (docs/scaling.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace pfdrl::obs {
class MetricsRegistry;
}
namespace pfdrl::net {
class ShardRouter;
class Topology;
}
namespace pfdrl::util {
class ThreadPool;
}

namespace pfdrl::fl {

/// What the round engine did, cumulative across run() segments. Wall
/// and stall times are real clock measurements — observability only,
/// never inputs to the simulation.
struct PipelineStats {
  /// Rounds fully retired (round_done fired).
  std::uint64_t rounds = 0;
  /// (shard, round) cells applied.
  std::uint64_t shard_rounds = 0;
  /// High-water count of simultaneously open rounds (1 = no overlap
  /// achieved, e.g. a full-mesh topology on one worker).
  std::uint64_t max_rounds_in_flight = 1;
  /// Mean over shards of each shard's summed wait between the end of its
  /// own publish and the start of its apply — time spent waiting on
  /// neighbor publishes (and the hub step). One shard's waits never
  /// overlap each other, so this is at most wall_seconds.
  double stall_seconds = 0.0;
  /// Wall seconds during which at least two rounds were open at once.
  double overlap_seconds = 0.0;
  /// Total wall seconds inside run().
  double wall_seconds = 0.0;
};

/// Shard-level broadcast reachability of a bus: out[s] lists every shard
/// that receives at least one message when shard s's agents broadcast,
/// self always included (a shard must see its own publish before it
/// applies). Each list is sorted unique. `router` supplies the shard map
/// and count; nullptr means one shard. Full mesh short-circuits to
/// all-to-all instead of walking O(N²) edges.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> shard_broadcast_graph(
    const net::Topology& topology, const net::ShardRouter* router);

/// The self-only graph of `shards` shards: no shard waits on another.
/// Runs without a federation step use it.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> self_only_graph(
    std::size_t shards);

/// [begin, end) cut into consecutive rounds of `round_minutes` (the last
/// one may be shorter): one (begin, end) pair per round.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> round_windows(
    std::size_t begin, std::size_t end, std::size_t round_minutes);

/// The dependency-driven round scheduler. Owns no domain logic — callers
/// hand it callbacks and a shard broadcast graph; it decides *when* each
/// (shard, round) cell runs and on which pool continuation.
class RoundPipeline {
 public:
  struct Ops {
    /// Local work for the shard's jobs at `round` (rollouts, training).
    std::function<void(std::size_t shard, std::uint64_t round)> compute;
    /// Broadcast the shard's parameters and flush its router row.
    /// Optional: a run without federation leaves it empty.
    std::function<void(std::size_t shard, std::uint64_t round)> publish;
    /// Optional hub node whose in- and out-neighbours are every shard:
    /// it runs once per round after every shard published, and every
    /// apply of that round waits for it (the star relay).
    std::function<void(std::uint64_t round)> hub;
    /// Drain + aggregate + commit; the scheduler guarantees every
    /// in-neighbor shard (self included) published `round` first, and
    /// that the hub step, when present, finished. Optional.
    std::function<void(std::size_t shard, std::uint64_t round)> apply;
    /// Sequential epilogue, called exactly once per round in ascending
    /// round order (serialized; cheap bookkeeping only — the global
    /// state is NOT quiesced, later rounds may already be in flight).
    std::function<void(std::uint64_t round)> round_done;
  };

  /// `out_neighbors` as produced by shard_broadcast_graph(); its size is
  /// the shard count. In-degrees (the readiness targets) are derived by
  /// transposing. With a `metrics` sink the engine records, under
  /// `prefix`, for every retired round: `.rounds` (counter),
  /// `.round_seconds` and `.round_seconds_series` (wall seconds since the
  /// previous retirement), and on a sharded graph `.shard.imbalance` /
  /// `.shard.seconds` (per-shard compute seconds of the round); after
  /// every segment, the cumulative stats as `.pipeline.rounds` /
  /// `.shard_rounds` counters and `.depth`, `.stall_seconds`,
  /// `.overlap_seconds`, `.wall_seconds` gauges.
  explicit RoundPipeline(std::vector<std::vector<std::uint32_t>> out_neighbors,
                         obs::MetricsRegistry* metrics = nullptr,
                         std::string prefix = {});

  /// Run one segment: rounds [first_round, first_round + rounds). Blocks
  /// until every cell is applied and every round_done fired — the
  /// segment boundary is the one full barrier left, which is where
  /// callers take snapshots. Exceptions from any callback abort the
  /// segment (in-flight cells finish or bail) and rethrow here.
  void run(util::ThreadPool& pool, std::uint64_t first_round,
           std::size_t rounds, const Ops& ops);

  [[nodiscard]] std::size_t shards() const noexcept { return out_.size(); }
  /// Cumulative across run() calls on this instance.
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }

 private:
  std::vector<std::vector<std::uint32_t>> out_;
  std::vector<std::uint32_t> target_;  ///< in-degree incl. self, per shard
  obs::MetricsRegistry* metrics_;
  std::string prefix_;
  PipelineStats stats_;
};

}  // namespace pfdrl::fl
