// Batched cross-shard message exchange for the bulk-synchronous engine
// (docs/scaling.md). Agents are partitioned into contiguous shards
// (util::shard_of); same-shard traffic flows straight into inboxes,
// while cross-shard messages are parked in a per-(src shard, dst shard)
// batch and handed over as ONE drain per shard pair per tick. Payloads
// stay refcounted handles, so batching moves pointers, not parameter
// bytes. flush() drains pairs in pinned ascending (src, dst) order and
// preserves enqueue order within a pair, which keeps sharded runs
// deterministic per seed.
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
  /// flush() calls (ticks with any router attached).
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

  /// Cost-weighted assignment: explicit contiguous boundaries (size
  /// shards+1, strictly increasing, boundaries.front() == 0 and
  /// boundaries.back() == num_agents), as produced by
  /// sim::ShardPlan::make_weighted. shard_of becomes an upper_bound over
  /// the boundaries — still monotone in the agent id, so the pipelined
  /// engine's shard_broadcast_graph precondition holds unchanged.
  ShardRouter(std::size_t num_agents, std::vector<std::size_t> boundaries);

  [[nodiscard]] std::size_t num_agents() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_; }
  /// Pinned contiguous assignment — util::shard_of arithmetic, or an
  /// upper_bound over the explicit boundaries when constructed with one.
  [[nodiscard]] std::size_t shard_of(AgentId agent) const noexcept;
  [[nodiscard]] bool cross_shard(AgentId a, AgentId b) const noexcept {
    return shard_of(a) != shard_of(b);
  }

  /// Park a cross-shard delivery in the (shard(msg.sender), shard(to))
  /// batch. Thread-safe; callers on different pairs never contend.
  void enqueue(AgentId to, Message msg);

  /// Drain all pair batches in ascending (src shard, dst shard) order,
  /// invoking `deliver(to, msg)` for each parked message in its original
  /// enqueue order. Returns the number of messages handed over. Not
  /// re-entrant; call from the tick barrier only.
  std::size_t flush(const std::function<void(AgentId, Message&&)>& deliver);

  /// Drain only the batches whose source shard is `src` (row `src` of
  /// the pair grid), ascending dst order, same slab accounting as
  /// flush(). This is the pipelined engine's publish step: shard src
  /// hands its round-r traffic over as soon as its own compute is done,
  /// without waiting for the other shards. Concurrent calls with
  /// distinct `src` values are safe (they touch disjoint rows);
  /// concurrent calls with the same `src` are not allowed.
  std::size_t flush_src(std::size_t src,
                        const std::function<void(AgentId, Message&&)>& deliver);

  /// Toggle the single-generation batch invariant. The pipelined engine
  /// flushes a source row before that shard's next round can publish, so
  /// while a staged session is active a pair batch must never hold two
  /// round generations — enqueue() throws if one does. The
  /// bulk-synchronous contract is looser (a lagging flusher may park
  /// several rounds), so the check is off by default;
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

  std::size_t drain_row(std::size_t src,
                        const std::function<void(AgentId, Message&&)>& deliver);

  std::size_t n_;
  std::size_t shards_;
  /// Empty for the uniform (N, S) assignment; else shards_+1 boundaries.
  std::vector<std::size_t> boundaries_;
  /// Dense shards_ × shards_ grid, row = src shard.
  std::vector<std::unique_ptr<PairBatch>> pairs_;
  std::atomic<bool> strict_rounds_{false};
  mutable std::mutex stats_mutex_;
  ShardRouterStats stats_;
};

}  // namespace pfdrl::net
