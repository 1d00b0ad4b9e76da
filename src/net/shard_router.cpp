#include "net/shard_router.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/shard.hpp"

namespace pfdrl::net {

ShardRouter::ShardRouter(std::size_t num_agents, std::size_t num_shards)
    : n_(num_agents), shards_(num_shards == 0 ? 1 : num_shards) {
  if (num_agents == 0) throw std::invalid_argument("ShardRouter: zero agents");
  if (shards_ > n_) shards_ = n_;
  pairs_.reserve(shards_ * shards_);
  for (std::size_t i = 0; i < shards_ * shards_; ++i) {
    pairs_.push_back(std::make_unique<PairBatch>());
  }
}

std::size_t ShardRouter::shard_of(AgentId agent) const noexcept {
  return util::shard_of(agent, n_, shards_);
}

void ShardRouter::enqueue(AgentId to, Message msg) {
  if (to >= n_ || msg.sender >= n_) {
    throw std::out_of_range("ShardRouter: bad agent id");
  }
  auto& batch = *pairs_[shard_of(msg.sender) * shards_ + shard_of(to)];
  {
    std::lock_guard lock(batch.mutex);
    if (batch.items.empty()) {
      batch.epoch = msg.round;
    } else if (batch.epoch != msg.round &&
               strict_rounds_.load(std::memory_order_relaxed)) {
      // Two round generations in one un-flushed batch means a publisher
      // ran ahead of its own flush — a broken pipeline invariant, not a
      // recoverable condition.
      throw std::logic_error("ShardRouter: mixed-round pair batch");
    }
    batch.items.emplace_back(to, std::move(msg));
  }
  std::lock_guard slock(stats_mutex_);
  ++stats_.messages_batched;
}

std::size_t ShardRouter::flush_src(
    std::size_t src, const std::function<void(AgentId, Message&&)>& deliver) {
  if (src >= shards_) throw std::out_of_range("ShardRouter: bad src shard");
  // Slab framing of one flushed pair batch: a real deployment ships the
  // whole batch as one transfer — a slab header (magic + shard pair +
  // round + message count), then per message a subheader (recipient,
  // sender, kind, device_type, payload length) and the raw payload. The
  // 25-byte per-message wire header is amortized into the subheader.
  constexpr std::uint64_t kSlabHeader = 16;
  constexpr std::uint64_t kSlabSubheader = 17;
  std::size_t handed_over = 0;
  std::uint64_t batches = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wire = 0;
  std::uint64_t max_depth = 0;
  // Pinned ascending dst drain order within the row.
  for (std::size_t dst = 0; dst < shards_; ++dst) {
    auto& pair = *pairs_[src * shards_ + dst];
    std::vector<std::pair<AgentId, Message>> items;
    {
      std::lock_guard lock(pair.mutex);
      items.swap(pair.items);
    }
    if (items.empty()) continue;
    ++batches;
    wire += kSlabHeader;
    if (items.size() > max_depth) max_depth = items.size();
    for (auto& [to, msg] : items) {
      bytes += msg.wire_bytes();
      wire += kSlabSubheader + msg.payload.size() * sizeof(double);
      deliver(to, std::move(msg));
      ++handed_over;
    }
  }
  std::lock_guard slock(stats_mutex_);
  ++stats_.flushes;
  stats_.batches_flushed += batches;
  stats_.batched_bytes += bytes;
  stats_.batched_wire_bytes += wire;
  if (max_depth > stats_.max_batch_depth) stats_.max_batch_depth = max_depth;
  return handed_over;
}

std::size_t ShardRouter::pending() const {
  std::size_t total = 0;
  for (const auto& pair : pairs_) {
    std::lock_guard lock(pair->mutex);
    total += pair->items.size();
  }
  return total;
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
