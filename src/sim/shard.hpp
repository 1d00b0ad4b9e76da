// Shard plan for the round engine (docs/scaling.md).
//
// A ShardPlan pins the home → shard assignment for a run: contiguous,
// balanced buckets computed from (num_homes, shards) alone, via the same
// util::shard arithmetic the runtime fan-out uses. Because the plan is a
// pure function of those two numbers, a resumed run reconstructs the
// identical assignment without persisting it — per-shard snapshot files
// only need to carry (shard_index, shard_count).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace pfdrl::sim {

struct ShardPlan {
  std::size_t num_homes = 0;
  std::size_t shards = 1;

  /// Clamp `requested` into [1, max(1, num_homes)] — one pool task per
  /// home is the finest useful grain, and 0 means "unsharded".
  [[nodiscard]] static ShardPlan make(std::size_t num_homes,
                                      std::size_t requested);

  [[nodiscard]] bool sharded() const noexcept { return shards > 1; }

  /// Shard owning `home` (contiguous balanced assignment; agrees with
  /// util::shard_of and hence with the runtime engine).
  [[nodiscard]] std::size_t shard_of(std::size_t home) const;

  /// Home range [first, last) of `shard`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
      std::size_t shard) const;

  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;

  /// Cluster size that aligns the hierarchical topology's clusters with
  /// the shard boundaries (ceil(num_homes / shards)): every cluster then
  /// lives inside one shard, so hub traffic is the only cross-shard
  /// traffic the router has to batch.
  [[nodiscard]] std::size_t aligned_cluster_size() const;

  /// Human-readable summary, e.g. "10000 homes / 8 shards (1250 each)".
  [[nodiscard]] std::string describe() const;
};

}  // namespace pfdrl::sim
