// The shard map of a sharded run and its cross-shard traffic ledger
// (docs/scaling.md). Agents are partitioned into contiguous shards
// (util::shard_of). Nothing is queued here: a shard's publish writes its
// items to the round's exchange board once (fl::StagedExchange), and the
// router bills what a real deployment would ship — one slab per (source
// shard, destination shard) pair per publish, carrying every cross-shard
// delivery of that pair — arithmetically, from the pair loads the
// publish hands it.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>

#include "net/message.hpp"

namespace pfdrl::net {

struct ShardRouterStats {
  /// Cross-shard deliveries carried in a pair slab.
  std::uint64_t messages_batched = 0;
  /// Non-empty (src, dst) pair slabs across all publishes — the number
  /// of cross-shard "transfers" a real deployment would pay for, vs.
  /// messages_batched individual sends without batching.
  std::uint64_t batches_flushed = 0;
  /// Shard publishes billed (one per bill_publish call).
  std::uint64_t flushes = 0;
  /// Bytes carried inside the slabs under per-message framing:
  /// Message::wire_bytes() (header + raw payload) each, as if every
  /// message had been sent on its own.
  std::uint64_t batched_bytes = 0;
  /// Bytes the cross-shard transfers pay under slab framing: one slab
  /// header per pair slab plus, per message, a slab subheader and the
  /// raw payload. Compare against batched_bytes for what batching saves
  /// in framing.
  std::uint64_t batched_wire_bytes = 0;
  /// High-water message count of any single pair slab (per-shard queue
  /// depth a real deployment would see).
  std::uint64_t max_batch_depth = 0;
};

/// One (source shard, destination shard) pair's share of a publish.
struct PairLoad {
  /// Cross-shard deliveries to the destination shard.
  std::uint64_t messages = 0;
  /// Their raw payload bytes, summed.
  std::uint64_t payload_bytes = 0;
};

class ShardRouter {
 public:
  ShardRouter(std::size_t num_agents, std::size_t num_shards);

  [[nodiscard]] std::size_t num_agents() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_; }
  /// Pinned contiguous assignment — util::shard_of arithmetic.
  [[nodiscard]] std::size_t shard_of(AgentId agent) const noexcept;
  [[nodiscard]] bool cross_shard(AgentId a, AgentId b) const noexcept {
    return shard_of(a) != shard_of(b);
  }

  /// Bill one source shard's publish: `row[d]` is the load it ships to
  /// shard d (the source's own entry, and any empty one, ships nothing).
  /// One lock per call. Thread-safe.
  void bill_publish(std::span<const PairLoad> row);

  [[nodiscard]] ShardRouterStats stats() const;
  void reset_stats();

 private:
  std::size_t n_;
  std::size_t shards_;
  mutable std::mutex stats_mutex_;
  ShardRouterStats stats_;
};

}  // namespace pfdrl::net
