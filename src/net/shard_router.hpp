// Batched cross-shard message exchange for the round engine
// (docs/scaling.md). Agents are partitioned into contiguous shards
// (util::shard_of); same-shard traffic flows straight into inboxes,
// while cross-shard messages are parked in a per-(src shard, dst shard)
// batch and handed over as ONE drain per shard pair per tick. Payloads
// stay refcounted handles, so batching moves pointers, not parameter
// bytes. flush_src() drains one source shard's pairs in pinned ascending
// dst order and preserves enqueue order within a pair, which keeps
// sharded runs deterministic per seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace pfdrl::net {

struct ShardRouterStats {
  /// Cross-shard messages parked in a pair batch.
  std::uint64_t messages_batched = 0;
  /// Non-empty (src, dst) pair batches handed over across all flushes —
  /// the number of cross-shard "transfers" a real deployment would pay
  /// for, vs. messages_batched individual sends without batching.
  std::uint64_t batches_flushed = 0;
  /// flush_src() calls (one per shard publish).
  std::uint64_t flushes = 0;
  /// Bytes carried inside flushed batches under per-message framing:
  /// Message::wire_bytes() (header + raw payload) each, as if every
  /// message had been sent on its own.
  std::uint64_t batched_bytes = 0;
  /// Bytes the cross-shard transfers pay under slab framing: one slab
  /// header per flushed pair batch plus, per message, a slab subheader
  /// and the raw payload. Compare against batched_bytes for what
  /// batching saves in framing.
  std::uint64_t batched_wire_bytes = 0;
  /// High-water message count of any single pair batch at flush time
  /// (per-shard queue depth).
  std::uint64_t max_batch_depth = 0;
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

  /// Park a cross-shard delivery in the (shard(msg.sender), shard(to))
  /// batch. Thread-safe; callers on different pairs never contend.
  void enqueue(AgentId to, Message msg);

  /// Drain the batches whose source shard is `src` (row `src` of the
  /// pair grid) in ascending dst order, invoking `deliver(to, msg)` for
  /// each parked message in its original enqueue order. Returns the
  /// number of messages handed over. This is the round engine's publish
  /// step: shard src hands its round-r traffic over as soon as its own
  /// compute is done, without waiting for the other shards. Concurrent
  /// calls with distinct `src` values are safe (they touch disjoint
  /// rows); concurrent calls with the same `src` are not allowed.
  std::size_t flush_src(std::size_t src,
                        const std::function<void(AgentId, Message&&)>& deliver);

  /// Toggle the single-generation batch invariant. The round engine
  /// flushes a source row before that shard's next round can publish, so
  /// while a staged session is active a pair batch must never hold two
  /// round generations — enqueue() throws if one does. Off by default (a
  /// lagging flusher outside a session may park several rounds);
  /// fl::StagedExchange turns it on for the session's duration.
  void set_strict_rounds(bool strict) noexcept {
    strict_rounds_.store(strict, std::memory_order_relaxed);
  }

  /// Messages currently parked across all pair batches.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] ShardRouterStats stats() const;
  void reset_stats();

 private:
  struct PairBatch {
    std::mutex mutex;
    std::vector<std::pair<AgentId, Message>> items;
    /// Round tag of the messages currently parked here (checked only
    /// under set_strict_rounds).
    std::uint64_t epoch = 0;
  };

  std::size_t n_;
  std::size_t shards_;
  /// Dense shards_ × shards_ grid, row = src shard.
  std::vector<std::unique_ptr<PairBatch>> pairs_;
  std::atomic<bool> strict_rounds_{false};
  mutable std::mutex stats_mutex_;
  ShardRouterStats stats_;
};

}  // namespace pfdrl::net
