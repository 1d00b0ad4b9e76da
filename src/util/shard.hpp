// Shard assignment and sharded parallel dispatch primitives for the
// round engine and evaluation (docs/scaling.md). Homes are partitioned into
// contiguous balanced blocks — shard s of S over N items covers
// [s*N/S, (s+1)*N/S) — so assignment is pinned by (N, S) alone and twin
// runs agree without any stored mapping. The low-level pieces live here
// (below net/core in the link order) so the message router, the DFL
// trainer, and the EMS pipeline can all share them.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace pfdrl::util {

class ThreadPool;

/// Shard owning item `i` of `n` under `shards` contiguous balanced
/// blocks. shards==0 is treated as 1 (unsharded).
[[nodiscard]] std::size_t shard_of(std::size_t i, std::size_t n,
                                   std::size_t shards) noexcept;

/// First item of shard `s` (also one-past-last of shard s-1).
[[nodiscard]] std::size_t shard_begin(std::size_t s, std::size_t n,
                                      std::size_t shards) noexcept;

/// Fused-training groups over a home-major job list (job_homes[j] is the
/// home owning job j; docs/fused_training.md): every job of one shard is
/// one group. An unsharded run (shards <= 1) is cut instead into up to
/// `chunks` contiguous balanced blocks of homes — one per pool worker, so
/// the groups still fill the cores. Groups never split a home. Returns
/// the start offset of each group plus a trailing job_homes.size().
[[nodiscard]] std::vector<std::size_t> job_groups(
    std::span<const std::size_t> job_homes, std::size_t num_homes,
    std::size_t shards, std::size_t chunks);

/// A home-major job list cut for the round engine: the fused groups of
/// job_groups() and each shard's contiguous slice of the jobs and of the
/// groups (contiguous because shard_of is monotone in the home id).
struct JobSlices {
  /// Group g covers jobs [group_begin[g], group_begin[g + 1]).
  std::vector<std::size_t> group_begin;
  /// Shard s owns jobs [shard_job_begin[s], shard_job_begin[s + 1]).
  std::vector<std::size_t> shard_job_begin;
  /// Shard s owns groups [shard_group_begin[s], shard_group_begin[s + 1]).
  std::vector<std::size_t> shard_group_begin;
};

/// job_groups() plus the shard slicing of jobs and groups; `shards`
/// <= 1 is one shard.
[[nodiscard]] JobSlices slice_jobs(std::span<const std::size_t> job_homes,
                                   std::size_t num_homes, std::size_t shards,
                                   std::size_t chunks);

/// Wall-clock seconds each shard spent in its serial slice of a sharded
/// dispatch (sharded_for, or one round of the round engine); empty when
/// the dispatch ran unsharded.
struct ShardTiming {
  std::vector<double> shard_seconds;

  /// Imbalance ratio max/mean over non-empty timings; 1.0 when unsharded
  /// or degenerate (the perfectly balanced value).
  [[nodiscard]] double max_over_mean() const noexcept;
};

/// Run `body(i)` for every i in [0, n_items). When shards <= 1 this is
/// exactly ThreadPool::parallel_for (the legacy scheduling, preserved so
/// unsharded runs stay bitwise identical to the pre-shard engine).
/// Otherwise items are bucketed by `shard_of_item(i)` preserving item
/// order within a bucket, and buckets run as one pool task each: thread
/// count is bounded by the pool, never by N. Bodies must be independent
/// across items (no ordering is guaranteed between shards).
ShardTiming sharded_for(ThreadPool& pool, std::size_t n_items,
                        std::size_t shards,
                        const std::function<std::size_t(std::size_t)>& shard_of_item,
                        const std::function<void(std::size_t)>& body);

}  // namespace pfdrl::util
