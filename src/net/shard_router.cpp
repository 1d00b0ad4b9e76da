#include "net/shard_router.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/shard.hpp"

namespace pfdrl::net {

ShardRouter::ShardRouter(std::size_t num_agents, std::size_t num_shards)
    : n_(num_agents), shards_(num_shards == 0 ? 1 : num_shards) {
  if (num_agents == 0) throw std::invalid_argument("ShardRouter: zero agents");
  if (shards_ > n_) shards_ = n_;
}

std::size_t ShardRouter::shard_of(AgentId agent) const noexcept {
  return util::shard_of(agent, n_, shards_);
}

void ShardRouter::bill_publish(std::span<const PairLoad> row) {
  // Slab framing of one pair's share of a publish: a real deployment
  // ships it as one transfer — a slab header (magic + shard pair + round
  // + message count), then per message a subheader (recipient, sender,
  // kind, device_type, payload length) and the raw payload. The 25-byte
  // per-message wire header is amortized into the subheader.
  constexpr std::uint64_t kSlabHeader = 16;
  constexpr std::uint64_t kSlabSubheader = 17;
  ShardRouterStats add;
  add.flushes = 1;
  for (const PairLoad& pair : row) {
    if (pair.messages == 0) continue;
    ++add.batches_flushed;
    add.messages_batched += pair.messages;
    add.batched_bytes += pair.messages * kMessageHeaderBytes + pair.payload_bytes;
    add.batched_wire_bytes +=
        kSlabHeader + pair.messages * kSlabSubheader + pair.payload_bytes;
    add.max_batch_depth = std::max(add.max_batch_depth, pair.messages);
  }
  std::lock_guard lock(stats_mutex_);
  stats_.messages_batched += add.messages_batched;
  stats_.batches_flushed += add.batches_flushed;
  stats_.flushes += add.flushes;
  stats_.batched_bytes += add.batched_bytes;
  stats_.batched_wire_bytes += add.batched_wire_bytes;
  stats_.max_batch_depth = std::max(stats_.max_batch_depth, add.max_batch_depth);
}

ShardRouterStats ShardRouter::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void ShardRouter::reset_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_ = ShardRouterStats{};
}

}  // namespace pfdrl::net
