// End-to-end EMS pipelines for all five compared methods (paper Table 2).
//
// A pipeline wires together:
//   * a load-forecast training backend — local-only, cloud-pooled,
//     hub-federated (FL) or decentralized-federated (DFL, β schedule);
//   * one DQN EMS agent per (residence, device), trained online on the
//     EmsEnvironment minute stream;
//   * for FRL / PFDRL, a DrlFederation that exchanges EMS parameters at
//     the γ schedule (all layers for FRL, α base layers for PFDRL).
//
// The per-(home,device) work inside a γ round is embarrassingly parallel
// and fans out on the global thread pool. Rounds run on the round engine
// (fl::RoundPipeline, docs/scaling.md): per-shard dependency edges stand
// in for the synchronous broadcast of Algorithms 1/2, and an unsharded
// run is one shard.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/episode.hpp"
#include "core/federation.hpp"
#include "core/method.hpp"
#include "data/tariff.hpp"
#include "data/trace.hpp"
#include "ems/accounting.hpp"
#include "ems/env.hpp"
#include "fl/baselines.hpp"
#include "fl/dfl.hpp"
#include "fl/round_pipeline.hpp"
#include "rl/dqn.hpp"
#include "util/shard.hpp"

namespace pfdrl::obs {
class Counter;
class MetricsRegistry;
}

namespace pfdrl::rl {
class FusedDqnLearner;
}

namespace pfdrl::core {

struct PipelineConfig {
  EmsMethod method = EmsMethod::kPfdrl;

  // Forecasting.
  forecast::Method forecast_method = forecast::Method::kLstm;
  data::WindowConfig window{};
  forecast::TrainConfig forecast_train{};
  /// β: forecast-parameter broadcast period (hours).
  double beta_hours = 12.0;
  /// Pairwise-mask the DFL forecast broadcasts (fl/secure_agg.hpp).
  bool secure_aggregation = false;

  // EMS / DRL.
  rl::DqnConfig dqn{};
  /// γ: DRL-parameter broadcast period (hours).
  double gamma_hours = 12.0;
  /// α: number of base (shared) DQN layers for PFDRL.
  std::size_t alpha = 6;
  /// Run a DQN learn step every this many simulated minutes. The EMS
  /// decision loop advances one meter interval per step, so the gate is
  /// interval-aware: a learn step fires in every step whose interval
  /// contains a multiple of this period.
  std::size_t learn_every_minutes = 4;
  /// Meter reporting period fed to the EMS environment (minutes). Also
  /// the EMS decision cadence: agents act when a new reading arrives
  /// (between reports the observable state barely moves), and the
  /// transition reward integrates the held action over the interval.
  std::size_t meter_interval_minutes = ems::EmsEnvironment::kDefaultMeterInterval;

  /// Fault plan shared by the forecast (DFL) and the DRL plan exchange
  /// buses: link model plus injected drops, delay/jitter, duplication
  /// and partition windows. Each bus gets its own fault seed
  /// derived from `seed` (bus ids 1 and 2) unless fault.seed is set.
  net::FaultPlan fault{};
  /// Deadline / quorum / crash / straggler policy applied to both
  /// federation paths. Default = original always-everything rounds.
  fl::ExchangePolicy robustness{};

  /// Metrics sink for the ems.* / dfl.* / drl.* / bus.* instruments;
  /// nullptr means the process-global obs::MetricsRegistry.
  obs::MetricsRegistry* metrics = nullptr;

  std::uint64_t seed = 123;

  // Sharding (docs/scaling.md). > 1 partitions homes into contiguous
  // shards: each shard's jobs train as one fused group
  // (docs/fused_training.md), cross-shard parameter messages batch per
  // shard pair per round (net::ShardRouter), and each shard publishes and
  // applies on its own readiness, overlapping one shard's compute with
  // another's exchange. 0/1 = one shard, trained as one fused group per
  // pool worker. Results are bitwise identical at any shard count and
  // pool size, on any fault plan.
  std::size_t shards = 0;
  /// Federation topology override for BOTH exchange paths; nullopt keeps
  /// the method defaults (DFL full mesh / FL+FRL star). The sparse kinds
  /// (kHierarchical, kGossip) cut broadcast cost to O(N·degree).
  std::optional<net::TopologyKind> topology;
  /// Cluster size / gossip fanout+seed for the sparse topologies.
  net::TopologyOptions topology_options{};
};

class EmsPipeline {
 public:
  EmsPipeline(const std::vector<data::HouseholdTrace>& traces,
              PipelineConfig cfg);
  ~EmsPipeline();

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t num_homes() const noexcept {
    return traces_.size();
  }

  /// Phase A — train the forecasting models over [begin, end) minutes.
  void train_forecasters(std::size_t begin, std::size_t end);

  /// Mean paper-accuracy of the forecasting stage over [begin, end):
  /// bitwise DflTrainer/CloudTrainer::mean_test_accuracy, but scored on
  /// the episode runner's cached series, so a day evaluate() has already
  /// predicted is not predicted again.
  [[nodiscard]] double forecast_accuracy(std::size_t begin,
                                         std::size_t end) const;

  /// Phase B — online EMS training over [begin, end) minutes, with DRL
  /// federation every γ hours (methods that share EMS plans only).
  void train_ems(std::size_t begin, std::size_t end);

  /// Greedy-policy evaluation over [begin, end): one merged result per
  /// residence (summed over its devices).
  [[nodiscard]] std::vector<ems::EpisodeResult> evaluate(
      std::size_t begin, std::size_t end) const;

  /// Dollars saved per residence under `tariff` over [begin, end);
  /// `minute0_of_year` anchors time-of-use pricing.
  [[nodiscard]] std::vector<double> evaluate_savings_dollars(
      std::size_t begin, std::size_t end, const data::Tariff& tariff,
      std::size_t minute0_of_year) const;

  /// Communication accounting.
  [[nodiscard]] net::BusStats forecast_comm_stats() const;
  [[nodiscard]] net::BusStats drl_comm_stats() const;

  /// The metrics sink this pipeline records into (config override or the
  /// process-global registry).
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept;
  /// Fold externally accumulated runtime stats (both buses, the global
  /// thread pool) into the registry; call before exporting so the dump
  /// carries bus drop/byte counters and pool counters even for methods
  /// that never touched a bus.
  void sync_runtime_metrics() const;

  /// DQN agent of (home, device) — exposed for tests and examples.
  [[nodiscard]] const rl::DqnAgent& agent(std::size_t home,
                                          std::size_t dev) const;

  // --- Warm-restart persistence surface (consumed by sim/snapshot) ----
  // The pipeline exposes its mutable internals and two hooks instead of
  // knowing about snapshots itself: sim layers RunSnapshot/SnapshotManager
  // on top (core must not depend on sim).

  [[nodiscard]] std::uint64_t ems_rounds_done() const noexcept {
    return ems_rounds_done_;
  }
  void set_ems_rounds_done(std::uint64_t rounds) noexcept {
    ems_rounds_done_ = rounds;
  }
  /// Device count of `home` (agent slots, including protected devices).
  [[nodiscard]] std::size_t num_devices(std::size_t home) const {
    return agents_.at(home).size();
  }
  /// Agent pointer; nullptr for protected (agent-less) devices.
  [[nodiscard]] const rl::DqnAgent* agent_ptr(std::size_t home,
                                              std::size_t dev) const {
    return agents_.at(home).at(dev).get();
  }
  /// Mutable agent pointer; nullptr for protected (agent-less) devices.
  [[nodiscard]] rl::DqnAgent* mutable_agent(std::size_t home, std::size_t dev);
  [[nodiscard]] fl::DflTrainer* dfl_trainer() noexcept {
    return dfl_ ? &*dfl_ : nullptr;
  }
  [[nodiscard]] const fl::DflTrainer* dfl_trainer() const noexcept {
    return dfl_ ? &*dfl_ : nullptr;
  }
  [[nodiscard]] fl::CloudTrainer* cloud_trainer() noexcept {
    return cloud_ ? &*cloud_ : nullptr;
  }
  [[nodiscard]] const fl::CloudTrainer* cloud_trainer() const noexcept {
    return cloud_ ? &*cloud_ : nullptr;
  }
  [[nodiscard]] DrlFederation* drl_federation() noexcept {
    return federation_ ? &*federation_ : nullptr;
  }
  [[nodiscard]] const DrlFederation* drl_federation() const noexcept {
    return federation_ ? &*federation_ : nullptr;
  }
  /// Drop every cached forecast series (call after restoring model
  /// parameters out-of-band).
  void invalidate_forecast_cache() { runner_.invalidate_forecasts(); }

  /// Fires with the updated ems_rounds_done() — the periodic-snapshot
  /// trigger. The round engine runs in segments of `every_rounds` rounds
  /// and invokes the hook only at segment boundaries, where the pipeline
  /// is fully quiesced (every shard applied, all metrics folded). Callers
  /// that act on a cadence anyway (sim::SnapshotManager) pass it here so
  /// the pipeline only barriers where the hook would actually fire; the
  /// default of 1 fires after every round at the cost of per-round
  /// quiescing.
  void set_on_round_end(std::function<void(std::uint64_t)> hook,
                        std::uint64_t every_rounds = 1) {
    on_round_end_ = std::move(hook);
    on_round_end_every_ = every_rounds;
  }
  /// Fires at the start of the first EMS round after residence `home`
  /// exits a crash window (cfg.robustness.failures). With no hook
  /// installed, behaviour is the original robustness model: the home kept
  /// its in-memory state across the outage (uplink loss, not process
  /// loss). A snapshot manager installs a hook that reloads the home from
  /// its last snapshot — the warm-restart model.
  void set_on_home_restart(std::function<void(std::size_t)> hook) {
    on_home_restart_ = std::move(hook);
  }

 private:
  /// The forecasting model of (home, dev) under the method's backend.
  [[nodiscard]] const forecast::Forecaster& model_for(std::size_t home,
                                                      std::size_t dev) const;
  /// Forecast series (watts) for trace minutes [begin, end) of one
  /// device, from whichever backend the method uses. Raw (uncached)
  /// backend call — episode code goes through runner_ instead.
  [[nodiscard]] std::vector<double> forecast_series(std::size_t home,
                                                    std::size_t dev,
                                                    std::size_t begin,
                                                    std::size_t end) const;

  /// The shared evaluation rollout: for every actionable (home, device),
  /// build the cached environment over [begin, end), run the greedy
  /// policy and hand (home, env, actions) to `visit`. Homes fan out on
  /// the pool; `visit` runs on the worker owning that home.
  void for_each_greedy_rollout(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t home, const ems::EmsEnvironment& env,
                               const std::vector<int>& actions)>& visit) const;

  // --- One γ-round's work --------------------------------------------
  struct EmsJob {
    std::size_t home, dev;
  };
  /// The round's work-list: one job per live (home, device) agent in
  /// home-major order, the fused groups over it (one per shard, or one
  /// per pool worker when unsharded) and the shard slicing of both.
  struct EmsRoundPlan {
    std::vector<EmsJob> jobs;
    std::vector<std::size_t> job_homes;
    util::JobSlices slices;
  };
  struct EmsRoundCounters {
    obs::Counter& env_steps;
    obs::Counter& replay_pushes;
    obs::Counter& learn_calls;
    obs::Counter& target_cache_hits;
    obs::Counter& target_cache_misses;
  };
  /// Build the round plan (and grow fused_learners_ to match — group
  /// boundaries are pinned by (jobs, shards, pool size), so this is
  /// idempotent across rounds).
  [[nodiscard]] EmsRoundPlan prepare_round_plan();
  /// EMS rollout+train pass of group g's jobs over trace minutes
  /// [begin, end), in lockstep so learn ticks stack into one fused DQN
  /// step. Independent across groups; groups never share a home.
  void run_ems_group(const EmsRoundPlan& plan, std::size_t g,
                     std::size_t begin, std::size_t end,
                     const EmsRoundCounters& counters);

  /// True when γ rounds exchange parameters: an EMS federation over at
  /// least two homes.
  [[nodiscard]] bool federates() const noexcept {
    return federation_.has_value() && federation_->bus().num_agents() >= 2;
  }

  const std::vector<data::HouseholdTrace>& traces_;
  PipelineConfig cfg_;

  std::optional<fl::DflTrainer> dfl_;      // Local / FL / FRL / PFDRL
  std::optional<fl::CloudTrainer> cloud_;  // Cloud

  std::vector<std::vector<std::unique_ptr<rl::DqnAgent>>> agents_;
  std::optional<DrlFederation> federation_;  // FRL / PFDRL
  /// Declared after cfg_ (its ForecastFn and metrics sink read it).
  EpisodeRunner runner_;
  /// Home shards: cfg_.shards clamped to [1, homes]; homes map to shards
  /// by util::shard_of, the same contiguous blocks as the routers.
  std::size_t shards_;
  /// The round engine of the γ rounds: the DRL bus's shard broadcast
  /// graph, or a self-only graph without a federation. Its stats are
  /// cumulative across train_ems calls (ems.pipeline.*).
  std::optional<fl::RoundPipeline> rounds_;
  /// Per-group fused DQN learners. Group boundaries are pinned by (jobs,
  /// shards, pool size), so group g keeps one learner — its cache
  /// counters and active-agent list; the learning scratch lives in each
  /// thread's nn::thread_scratch().
  std::vector<std::unique_ptr<rl::FusedDqnLearner>> fused_learners_;
  std::uint64_t ems_rounds_done_ = 0;
  std::uint64_t on_round_end_every_ = 1;
  std::function<void(std::uint64_t)> on_round_end_;
  std::function<void(std::size_t)> on_home_restart_;
};

/// True if the method federates its EMS (FRL, PFDRL).
bool shares_ems_plans(EmsMethod m) noexcept;

}  // namespace pfdrl::core
