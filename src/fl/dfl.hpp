// Decentralized federated learning for load forecasting (paper §3.2,
// Algorithm 1).
//
// The trainer owns one forecaster per (residence, device). Simulated
// time advances in rounds of `broadcast_period_hours` (the paper's β):
// within a round every agent trains each of its device models on the
// newly recorded minutes; at the round boundary agents broadcast the
// parameters of every device model over the message bus and average them
// with the homologous models (same device *type*) received from other
// residences. Rounds run on the round engine (fl::RoundPipeline driving
// one fl::StagedExchange session per run() call), the same scheduler as
// the EMS γ rounds — docs/scaling.md.
//
// Aggregation modes cover the paper's comparison matrix:
//   kDecentralized — full-mesh broadcast, average at every agent (DFL);
//   kCentralized   — star topology through an aggregator hub (classic FL
//                    with a cloud server; same averaging math, different
//                    communication pattern and trust assumptions);
//   kNone          — purely local training (the Local baseline).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "data/household.hpp"
#include "data/trace.hpp"
#include "fl/exchange.hpp"
#include "fl/round_pipeline.hpp"
#include "fl/secure_agg.hpp"
#include "forecast/forecaster.hpp"
#include "net/bus.hpp"

namespace pfdrl::obs {
class MetricsRegistry;
}

namespace pfdrl::fl {

enum class AggregationMode : std::uint8_t {
  kDecentralized = 0,
  kCentralized = 1,
  kNone = 2,
};

const char* aggregation_mode_name(AggregationMode m) noexcept;

struct DflConfig {
  forecast::Method method = forecast::Method::kLstm;
  data::WindowConfig window{};
  forecast::TrainConfig train{};
  /// β: hours of data recorded (and trained on) between broadcasts.
  double broadcast_period_hours = 12.0;
  AggregationMode aggregation = AggregationMode::kDecentralized;
  std::uint64_t seed = 7;
  /// Cap on supervised samples per device per round (cost control for
  /// very long rounds); 0 = unlimited.
  std::size_t max_round_samples = 300;
  /// Pairwise-mask broadcasts so no neighbour ever sees a residence's raw
  /// parameters (see fl/secure_agg.hpp). The aggregate is unchanged up to
  /// floating-point residue (plus optional DP noise).
  bool secure_aggregation = false;
  SecureAggConfig secure{};
  /// Link behaviour: bandwidth/latency/loss plus injected delay, jitter,
  /// duplication and partition windows. With a faulty plan,
  /// aggregation simply averages the contributions that made it through
  /// (secure_aggregation requires FaultPlan::reliable() — masks only
  /// cancel under full participation). When fault.seed is 0 the trainer
  /// derives a per-bus stream from `seed` (bus id 1) so the forecast and
  /// DRL buses never share a drop mask.
  net::FaultPlan fault{};
  /// Deadline / quorum / crash / straggler policy for exchange rounds.
  /// The default reproduces the original always-everything round.
  ExchangePolicy robustness{};
  /// Metrics sink for the dfl.* / bus.forecast.* instruments; nullptr
  /// disables recording.
  obs::MetricsRegistry* metrics = nullptr;
  /// Broadcast topology override; nullopt keeps the aggregation-mode
  /// default (full mesh for decentralized, star for centralized). The
  /// sparse kinds (hierarchical, gossip) drop broadcast cost from O(N²)
  /// links to O(N·degree) for city-scale runs — see docs/scaling.md.
  std::optional<net::TopologyKind> topology;
  /// Cluster size / gossip fanout+seed for the sparse topologies.
  net::TopologyOptions topology_options{};
  /// Shards of the round engine: > 1 trains each shard's (home, device)
  /// jobs as one fused group (docs/fused_training.md), batches
  /// cross-shard parameter messages per shard pair per round
  /// (net::ShardRouter), and lets shards publish and apply on their own
  /// readiness. 0/1 = one shard, trained as one fused group per pool
  /// worker. Results are bitwise identical at any shard count.
  std::size_t shards = 0;
};

/// One agent's per-device model set.
struct AgentModels {
  std::vector<std::unique_ptr<forecast::Forecaster>> devices;
};

class DflTrainer {
 public:
  /// `traces` holds one HouseholdTrace per residence; all must cover the
  /// same number of minutes.
  DflTrainer(const std::vector<data::HouseholdTrace>& traces, DflConfig cfg);
  ~DflTrainer();

  [[nodiscard]] std::size_t num_agents() const noexcept {
    return agents_.size();
  }
  [[nodiscard]] const DflConfig& config() const noexcept { return cfg_; }

  /// Train over trace minutes [train_begin, train_end) in β-hour rounds.
  /// Returns the number of rounds executed.
  std::size_t run(std::size_t train_begin, std::size_t train_end);

  /// Execute a single round over [begin, end) minutes (exposed for the
  /// accuracy-vs-days experiment that interleaves training and testing).
  void round(std::size_t begin, std::size_t end);

  /// Forecaster of agent `home` for its device index `dev`.
  [[nodiscard]] const forecast::Forecaster& forecaster(std::size_t home,
                                                       std::size_t dev) const;

  /// Mean paper-accuracy over all agents/devices for test minutes
  /// [begin, end).
  [[nodiscard]] double mean_test_accuracy(std::size_t begin,
                                          std::size_t end) const;
  /// Per-agent mean accuracy (for personalization error bars).
  [[nodiscard]] std::vector<double> per_agent_accuracy(std::size_t begin,
                                                       std::size_t end) const;

  [[nodiscard]] net::BusStats comm_stats() const { return bus_.stats(); }

  // --- Warm-restart persistence surface (see sim/snapshot.hpp) --------
  /// Rounds executed so far. The per-round training RNG is forked from
  /// (seed, round, home, dev), so restoring this counter plus the
  /// forecaster states is all a bitwise resume needs.
  [[nodiscard]] std::uint64_t rounds_done() const noexcept {
    return rounds_done_;
  }
  void set_rounds_done(std::uint64_t rounds) noexcept {
    rounds_done_ = rounds;
  }
  /// Mutable forecaster access for snapshot restore.
  [[nodiscard]] forecast::Forecaster& mutable_forecaster(std::size_t home,
                                                         std::size_t dev);
  /// The broadcast bus (stats restore).
  [[nodiscard]] net::MessageBus& bus() noexcept { return bus_; }
  [[nodiscard]] const net::MessageBus& bus() const noexcept { return bus_; }
  /// Attached cross-shard router; nullptr when unsharded.
  [[nodiscard]] const net::ShardRouter* shard_router() const noexcept {
    return router_.get();
  }
  /// Training groups that could not fuse (closed-form LR/SVR methods,
  /// mismatched shapes) and trained per job instead, summed over rounds.
  /// Folded into the registry as `forecast.fused_fallbacks`.
  [[nodiscard]] std::uint64_t fused_fallbacks() const noexcept {
    return fused_fallbacks_;
  }

 private:
  /// True when rounds exchange parameters (an aggregation mode and at
  /// least two residences); otherwise they only train.
  [[nodiscard]] bool federates() const noexcept {
    return cfg_.aggregation != AggregationMode::kNone && traces_.size() > 1;
  }
  /// Run the rounds over `windows` ([begin, end) minute pairs) as one
  /// segment of the round engine, starting at round rounds_done().
  void run_rounds(
      const std::vector<std::pair<std::size_t, std::size_t>>& windows);

  const std::vector<data::HouseholdTrace>& traces_;
  DflConfig cfg_;
  std::vector<AgentModels> agents_;
  /// Declared before bus_ — the bus holds a non-owning router pointer.
  std::unique_ptr<net::ShardRouter> router_;
  net::MessageBus bus_;
  /// The round engine over the bus's shard broadcast graph (self-only
  /// when the trainer does not federate); its stats are cumulative.
  RoundPipeline pipeline_;
  std::uint64_t rounds_done_ = 0;
  std::uint64_t fused_fallbacks_ = 0;
};

}  // namespace pfdrl::fl
