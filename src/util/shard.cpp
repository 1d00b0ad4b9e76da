#include "util/shard.hpp"

#include <stdexcept>

#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::util {

std::size_t shard_of(std::size_t i, std::size_t n, std::size_t shards) noexcept {
  if (shards <= 1 || n == 0) return 0;
  // Inverse of shard_begin: the unique s with s*n/shards <= i < (s+1)*n/shards.
  return ((i + 1) * shards - 1) / n;
}

std::size_t shard_begin(std::size_t s, std::size_t n,
                        std::size_t shards) noexcept {
  if (shards <= 1) return s == 0 ? 0 : n;
  return (s * n) / shards;
}

std::vector<std::size_t> job_groups(std::span<const std::size_t> job_homes,
                                    std::size_t num_homes, std::size_t shards,
                                    std::size_t chunks) {
  const std::size_t blocks = shards > 1 ? shards : chunks;
  std::vector<std::size_t> starts;
  for (std::size_t j = 0; j < job_homes.size(); ++j) {
    if (j == 0 || shard_of(job_homes[j], num_homes, blocks) !=
                      shard_of(job_homes[j - 1], num_homes, blocks)) {
      starts.push_back(j);
    }
  }
  starts.push_back(job_homes.size());
  return starts;
}

JobSlices slice_jobs(std::span<const std::size_t> job_homes,
                     std::size_t num_homes, std::size_t shards,
                     std::size_t chunks) {
  const std::size_t count = shards == 0 ? 1 : shards;
  // Prefix starts of each shard's slice of n home-major entries.
  const auto slices = [&](std::size_t n, const auto& home_of) {
    std::vector<std::size_t> begin(count + 1, 0);
    std::size_t s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t is = shard_of(home_of(i), num_homes, count);
      while (s < is) begin[++s] = i;
    }
    while (s < count) begin[++s] = n;
    return begin;
  };
  JobSlices out;
  out.group_begin = job_groups(job_homes, num_homes, shards, chunks);
  out.shard_job_begin =
      slices(job_homes.size(), [&](std::size_t j) { return job_homes[j]; });
  out.shard_group_begin =
      slices(out.group_begin.size() - 1,
             [&](std::size_t g) { return job_homes[out.group_begin[g]]; });
  return out;
}

double ShardTiming::max_over_mean() const noexcept {
  if (shard_seconds.empty()) return 1.0;
  double sum = 0.0;
  double max = 0.0;
  for (double s : shard_seconds) {
    sum += s;
    if (s > max) max = s;
  }
  const double mean = sum / static_cast<double>(shard_seconds.size());
  return mean > 0.0 ? max / mean : 1.0;
}

ShardTiming sharded_for(ThreadPool& pool, std::size_t n_items,
                        std::size_t shards,
                        const std::function<std::size_t(std::size_t)>& shard_of_item,
                        const std::function<void(std::size_t)>& body) {
  ShardTiming timing;
  if (shards <= 1 || n_items <= 1) {
    pool.parallel_for(0, n_items, body);
    return timing;
  }
  std::vector<std::vector<std::size_t>> buckets(shards);
  for (std::size_t i = 0; i < n_items; ++i) {
    const std::size_t s = shard_of_item(i);
    if (s >= shards) throw std::out_of_range("sharded_for: bad shard index");
    buckets[s].push_back(i);
  }
  timing.shard_seconds.assign(shards, 0.0);
  pool.parallel_for(
      0, shards,
      [&](std::size_t s) {
        const Stopwatch watch;
        for (std::size_t i : buckets[s]) body(i);
        timing.shard_seconds[s] = watch.elapsed_seconds();
      },
      /*grain=*/1);
  return timing;
}

}  // namespace pfdrl::util
