#include "sim/shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/shard.hpp"

namespace pfdrl::sim {

ShardPlan ShardPlan::make(std::size_t num_homes, std::size_t requested) {
  ShardPlan plan;
  plan.num_homes = num_homes;
  plan.shards = std::clamp<std::size_t>(requested, 1,
                                        std::max<std::size_t>(1, num_homes));
  return plan;
}

std::size_t ShardPlan::shard_of(std::size_t home) const {
  if (home >= num_homes) {
    throw std::out_of_range("ShardPlan::shard_of: home out of range");
  }
  return util::shard_of(home, num_homes, shards);
}

std::pair<std::size_t, std::size_t> ShardPlan::shard_range(
    std::size_t shard) const {
  if (shard >= shards) {
    throw std::out_of_range("ShardPlan::shard_range: shard out of range");
  }
  return {util::shard_begin(shard, num_homes, shards),
          util::shard_begin(shard + 1, num_homes, shards)};
}

std::size_t ShardPlan::shard_size(std::size_t shard) const {
  const auto [first, last] = shard_range(shard);
  return last - first;
}

std::size_t ShardPlan::aligned_cluster_size() const {
  if (num_homes == 0) return 1;
  return (num_homes + shards - 1) / shards;
}

std::string ShardPlan::describe() const {
  std::string s = std::to_string(num_homes) + " homes / " +
                  std::to_string(shards) + " shard" +
                  (shards == 1 ? "" : "s");
  if (shards > 1) {
    s += " (" + std::to_string(aligned_cluster_size()) + " max each)";
  }
  return s;
}

}  // namespace pfdrl::sim
