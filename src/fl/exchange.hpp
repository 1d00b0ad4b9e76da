// The federated exchange round, as one reusable engine.
//
// Both of the paper's federation loops — DFL forecast averaging every β
// hours (Alg. 1) and DRL base-layer averaging every γ hours (Eq. 7) —
// are the same communication pattern: every agent broadcasts a flat
// parameter slice along the topology, a star hub optionally relays leaf
// messages (the "cloud tax" of the centralized baselines), every agent
// reads its in-neighbours' contributions in deterministic (sender,
// device_type) order, guards contribution shapes, and averages per
// device-type group.
// StagedExchange owns that round, carved into per-shard stages the
// round engine (fl::RoundPipeline) schedules; DflTrainer and
// DrlFederation are thin configurations of it (gossip-averaging systems
// — DSGD, FedAvg — treat the exchange round as a primitive, and so do
// we). ParamExchange::round runs one round of those stages in order.
//
// The round's board: nothing is queued per receiver. Publishing writes
// each live item's slice to the round's board as one net::Payload
// allocation, whatever the receiver count; a receiver reads its
// in-neighbours' entries and evaluates each delivery's fate (drop,
// partition, arrival, duplicate — net::MessageBus::fate) once, when it
// reads it. A full-mesh round is O(items) payload writes plus one fate
// per delivery. The engine reports the per-round allocation count as
// `exchange.payload_copies`.
//
// Determinism: contributions are read in ascending (sender, device_type)
// order, and every fault draw is a pure function of the delivery, so
// results are bit-reproducible regardless of schedule, shard count or
// pool size — the property the fixed-seed golden tests pin down.
// Receivers whose accepted contributions are equal share one average
// per round, across shards: identical inputs summed in identical order
// give identical bits.
//
// Degradation: rounds are deadline-based when ExchangePolicy asks for it.
// Each round keeps whatever arrived by the per-round deadline (in
// simulated time), discards a restarted residence's crash backlog as
// stale and collapses duplicate deliveries, aggregates the quorum that
// made it with a participation-weighted average (each unique arrival
// weighs 1/K), and falls back to local-only parameters when the quorum
// is missed. Crashed residences skip the round entirely; the star hub
// step retries missing leaf contributions with backoff. Every
// degradation decision is observable through the exchange.* and fault.*
// metric families — see docs/robustness.md for the exact semantics the
// tests pin.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fl/secure_agg.hpp"
#include "net/bus.hpp"
#include "net/fault.hpp"

namespace pfdrl::obs {
class MetricsRegistry;
}

namespace pfdrl::fl {

/// One (agent, device) participant in an exchange round.
struct ExchangeItem {
  /// Residence / agent id on the bus.
  net::AgentId agent = 0;
  /// Device type — the aggregation group key (homologous models only).
  std::uint32_t device_type = 0;
  /// The shared slice this item broadcasts and averages over (for PFDRL
  /// this is the α-layer base prefix; for DFL the full parameter vector).
  std::span<const double> send;
  /// Optional in-place destination covering at least send.size() values
  /// (typically the network's flat parameter span). When non-empty the
  /// grouped average is written via fedavg_prefix — Eq. 7 lands directly
  /// in the live parameters and the untouched suffix is Eq. 8's
  /// personalization layers. When empty the engine averages into scratch
  /// and hands the result to the commit callback instead.
  std::span<double> in_place;
};

/// Robustness policy for a round: how long to wait, how many peers are
/// enough, how hard the star hub tries, and which residences are down.
/// The default policy reproduces the original always-everything round.
struct ExchangePolicy {
  /// Per-round deadline in simulated seconds; contributions whose
  /// arrival exceeds it are discarded as late. 0 = no deadline (keep
  /// everything from the current round).
  double round_deadline_s = 0.0;
  /// Minimum fraction of an item's nominal aggregation group (own
  /// contribution included) that must arrive for averaging; below it the
  /// item falls back to its local parameters. 0 disables the gate
  /// (Options::min_group still applies).
  double quorum_fraction = 0.0;
  /// Star topology only: retransmission attempts per missing leaf
  /// contribution on the leaf->hub path. 0 disables retries.
  std::size_t hub_retries = 2;
  /// Extra simulated arrival delay per retry attempt (backoff).
  double retry_backoff_s = 0.05;
  /// Crash windows and compute stragglers, per residence.
  net::FailureSchedule failures{};

  [[nodiscard]] bool degraded() const noexcept {
    return round_deadline_s > 0.0 || quorum_fraction > 0.0 ||
           !failures.empty();
  }
};

/// What one round did (callers fold these into their own dfl.* / drl.*
/// metric namespaces; the engine also records exchange.* instruments).
struct ExchangeStats {
  /// Peer contributions merged after the shape guard.
  std::uint64_t accepted = 0;
  /// Contributions rejected by the shape guard.
  std::uint64_t rejected = 0;
  /// Hub relays performed (star topology only).
  std::uint64_t relayed = 0;
  /// Items whose group reached min_group and quorum and were averaged.
  std::uint64_t items_averaged = 0;
  /// Distinct averages computed: items with identical accepted
  /// contributions share one per round, across shards
  /// (docs/robustness.md), so this is at most items_averaged — one per
  /// device type per round on a clean mesh.
  std::uint64_t averages_computed = 0;
  /// Parameters overwritten by averaging, summed over items.
  std::uint64_t params_averaged = 0;
  /// Payload buffer allocations during the round (zero-copy accounting:
  /// one per published item, never per receiver).
  std::uint64_t payload_allocations = 0;
  /// Duplicate deliveries collapsed by the (sender, device_type) dedupe
  /// — aggregation is idempotent under the bus's duplication fault.
  std::uint64_t duplicates = 0;
  /// Deliveries from a residence's crash window discarded on its first
  /// live round (its crash backlog, net::MessageBus::take_backlog).
  std::uint64_t stale_msgs = 0;
  /// Current-round messages discarded for arriving past the deadline.
  std::uint64_t late_msgs = 0;
  /// Items whose group met the quorum fraction (counted only when the
  /// quorum gate is enabled).
  std::uint64_t quorum_met = 0;
  /// Items gated out by the quorum fraction (local fallback).
  std::uint64_t quorum_missed = 0;
  /// Live items that did not average this round for any reason (below
  /// min_group, or quorum missed) and kept local parameters — each one
  /// is an item-round of staleness.
  std::uint64_t local_fallbacks = 0;
  /// Items skipped because their residence is inside a crash window.
  std::uint64_t crashed_items = 0;
  /// Leaf->hub retransmissions attempted by the star relay path.
  std::uint64_t retries = 0;
};

class ParamExchange {
 public:
  struct Options {
    /// Kind stamped on outgoing messages.
    net::MessageKind kind = net::MessageKind::kForecastParams;
    /// Pairwise-mask broadcasts (groups of >= 2) so no neighbour sees raw
    /// parameters; the masked form is also the sender's own contribution,
    /// since masks only cancel under full group participation.
    const SecureAggregator* secure = nullptr;
    /// Minimum group size (own contribution included) to average at all;
    /// below it the item keeps its local parameters untouched.
    std::size_t min_group = 2;
    /// Sink for the exchange.* instruments; nullptr disables recording.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional caller-namespaced histogram for per-average group sizes
    /// (e.g. "dfl.agg_group_size"); empty records exchange.group_size
    /// only.
    std::string group_size_histogram;
    /// Deadline / quorum / retry / failure-schedule policy; the default
    /// reproduces the original always-everything round.
    ExchangePolicy policy{};
  };

  /// Invoked for every averaged item after its result landed; `averaged`
  /// aliases item.in_place for in-place items and engine scratch
  /// otherwise (consumers without a mutable flat span call
  /// set_parameters here; consumers with one use it to notify).
  using CommitFn =
      std::function<void(std::size_t item, std::span<const double> averaged)>;

  ParamExchange(net::MessageBus& bus, Options options);

  /// One full round of StagedExchange's stages in order: publish every
  /// shard, the hub step (star topologies), apply every shard. Items
  /// must be sorted ascending by agent when the bus has a shard router;
  /// an agent may own several items. Records exchange.* metrics for one
  /// round and returns its stats.
  ExchangeStats round(std::span<const ExchangeItem> items,
                      std::uint64_t round_id, const CommitFn& commit);

 private:
  net::MessageBus& bus_;
  Options options_;
};

/// The exchange round, carved into per-shard publish/apply stages plus a
/// once-per-round hub step, so the round engine (fl::RoundPipeline,
/// docs/scaling.md) can overlap one shard's encode/route with another's
/// compute instead of running the round behind a global barrier.
///
/// Contract: construct once per run with items sorted ascending by agent
/// (required when the bus has a shard router), at most one item per
/// (agent, device type). For every round r, publish_shard(s, r) must run
/// before apply_shard(d, r) for every shard d that s broadcasts into; on
/// a star, hub_step(r) runs after every shard published r and before any
/// shard applies r (readiness is the pipeline's job). Within one shard
/// the calls are sequential. Every round has its own board, which lives
/// until every shard has applied that round: on a directed graph a shard
/// may publish several rounds ahead of a slow reader, and its round-r
/// entries stay readable until the last round-r apply.
///
/// Stats accumulate across rounds (order-independent atomic sums);
/// record_metrics() folds exchange.*/fault.* deltas per segment.
class StagedExchange {
 public:
  StagedExchange(net::MessageBus& bus, ParamExchange::Options options,
                 std::vector<ExchangeItem> items);
  ~StagedExchange();

  StagedExchange(const StagedExchange&) = delete;
  StagedExchange& operator=(const StagedExchange&) = delete;

  /// Shard count, derived from the bus's attached router (1 when flat).
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_; }
  /// True on a star topology: every round needs hub_step().
  [[nodiscard]] bool has_hub() const noexcept;

  /// Re-point item `item`'s outgoing slice (a model whose parameter
  /// buffer moved since construction). Only the item's own shard may
  /// call this, between its apply and its next publish.
  void set_send(std::size_t item, std::span<const double> send);

  /// Phase 1 for `shard` at `round_id`: write every live owned item to
  /// the round's board and bill the shard's sends (and, sharded, its
  /// cross-shard pair slabs).
  void publish_shard(std::size_t shard, std::uint64_t round_id);

  /// Star topologies only (a no-op otherwise): the hub (agent 0) reads
  /// the leaves' board entries, retries missing leaf contributions with
  /// backoff, relays each (sender, device_type) once to the other leaves
  /// through the board and keeps its copies for its own apply. A crashed
  /// hub only banks its backlog, which takes the round down. Every shard
  /// must have published `round_id` first.
  void hub_step(std::uint64_t round_id);

  /// Phases 2+3 for `shard` at `round_id`: every agent of the shard
  /// reads its deliveries from the board (fate, deadline filter, dedupe,
  /// shape guard, in ascending (sender, device_type) order), then every
  /// live item passes the quorum gate and lands its share of the round's
  /// averages, and is committed. Every in-neighbor shard must have
  /// published `round_id` first, and the hub step must have run.
  void apply_shard(std::size_t shard, std::uint64_t round_id,
                   const ParamExchange::CommitFn& commit);

  /// Cumulative stats over all staged rounds so far.
  [[nodiscard]] ExchangeStats stats() const;

  /// Fold exchange.* / fault.* metric deltas accumulated since the last
  /// call (or construction); `rounds_completed` is the number of staged
  /// rounds in the window.
  void record_metrics(std::uint64_t rounds_completed);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t shards_ = 1;
};

}  // namespace pfdrl::fl
