// DRL parameter federation (paper §3.3.2, Eq. 7).
//
// Groups DQN agents by device type across residences and averages either
// the full parameter vector (the FRL baseline) or only the α-layer base
// prefix (PFDRL). Parameters travel over the simulated message bus so
// communication volume is accounted exactly — the PFDRL prefix messages
// are smaller, which is what produces the paper's Fig. 14 time-overhead
// ordering (PFDRL < FRL).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fl/exchange.hpp"
#include "net/bus.hpp"
#include "rl/dqn.hpp"

namespace pfdrl::obs {
class MetricsRegistry;
}

namespace pfdrl::core {

struct FederatedDevice {
  /// Residence / agent id on the bus.
  net::AgentId home = 0;
  /// Device type (aggregation group key).
  std::uint32_t device_type = 0;
  rl::DqnAgent* agent = nullptr;
};

class DrlFederation {
 public:
  /// `share_layers` = number of dense layers broadcast (the paper's α);
  /// pass the network's full layer count for FRL. `num_homes` sizes the
  /// bus. `fault` models the plan-exchange network (a bare LinkModel
  /// converts implicitly; lossy links shrink aggregation groups and the
  /// shape guard keeps averaging well-formed). `metrics` (optional)
  /// receives per-round drl.* instruments. `policy` adds deadline /
  /// quorum / crash / straggler degradation to every round.
  /// `topology_options` tunes the sparse topologies (hierarchical
  /// cluster size, gossip fanout/seed); mesh/star/ring ignore it.
  /// `shards` > 1 attaches a net::ShardRouter: cross-shard plan messages
  /// are batched per shard pair per round and the drain/aggregate phases
  /// run on the global pool (see docs/scaling.md).
  DrlFederation(std::size_t num_homes, std::size_t share_layers,
                net::TopologyKind topology, net::FaultPlan fault = {},
                obs::MetricsRegistry* metrics = nullptr,
                fl::ExchangePolicy policy = {},
                net::TopologyOptions topology_options = {},
                std::size_t shards = 0);

  /// One federation round over all registered devices: broadcast each
  /// agent's shared slice, then average per device type at each home
  /// (Eq. 7) and stitch with the local personalization suffix (Eq. 8).
  void round(std::vector<FederatedDevice>& devices, std::uint64_t round_id);

  // --- Staged (pipelined) rounds — fl::StagedExchange ------------------
  // The dependency-driven round pipeline (core::RoundPipeline) drives
  // federation per shard instead of per round: begin_staged_rounds builds
  // the exchange items and engine once for a device set, then every round
  // is publish_staged(s, r) per shard followed by apply_staged(s, r) once
  // the shard's in-neighbors published. fold_staged_metrics runs at
  // segment barriers (quiesced) and end_staged_rounds tears the session
  // down. `devices` must outlive the session and stay unmoved — commits
  // notify through it. Caller gates eligibility (no star topology, a
  // deterministic fault plan); the engine throws otherwise.

  void begin_staged_rounds(std::vector<FederatedDevice>& devices);
  void publish_staged(std::size_t shard, std::uint64_t round_id);
  void apply_staged(std::size_t shard, std::uint64_t round_id);
  /// Fold drl.* / exchange.* / fault.* metric deltas for the `rounds`
  /// staged rounds completed since the previous fold.
  void fold_staged_metrics(std::uint64_t rounds);
  void end_staged_rounds();
  /// Shard count of the active staged session (1 when unsharded).
  [[nodiscard]] std::size_t staged_shards() const;

  [[nodiscard]] net::BusStats comm_stats() const { return bus_.stats(); }
  [[nodiscard]] std::size_t share_layers() const noexcept {
    return share_layers_;
  }
  /// The plan-exchange bus (warm-restart fault-RNG/stats restore; see
  /// sim/snapshot.hpp).
  [[nodiscard]] net::MessageBus& bus() noexcept { return bus_; }
  [[nodiscard]] const net::MessageBus& bus() const noexcept { return bus_; }
  /// Attached cross-shard router; nullptr when unsharded.
  [[nodiscard]] const net::ShardRouter* shard_router() const noexcept {
    return router_.get();
  }

 private:
  /// Exchange items for `devices` plus the engine options that ship them
  /// — shared by round() and begin_staged_rounds().
  struct Exchange {
    std::vector<fl::ExchangeItem> items;
    fl::ParamExchange::Options options;
  };
  [[nodiscard]] Exchange make_exchange(
      const std::vector<FederatedDevice>& devices) const;
  /// Fold the drl.* counters for `rounds` rounds (the exchange stats
  /// `now` minus those already folded, `before`) and the bus and router
  /// ledgers into the registry. No-op without one.
  void fold_metrics(std::uint64_t rounds, const fl::ExchangeStats& now,
                    const fl::ExchangeStats& before);

  std::size_t share_layers_;
  /// Declared before bus_ — the bus holds a non-owning router pointer.
  std::unique_ptr<net::ShardRouter> router_;
  net::MessageBus bus_;
  obs::MetricsRegistry* metrics_;
  fl::ExchangePolicy policy_;
  /// Active staged session (begin_staged_rounds .. end_staged_rounds).
  std::optional<fl::StagedExchange> staged_;
  std::vector<FederatedDevice>* staged_devices_ = nullptr;
  /// Cumulative staged stats already folded into drl.* counters.
  fl::ExchangeStats staged_folded_{};
};

}  // namespace pfdrl::core
