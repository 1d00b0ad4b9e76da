#include "fl/dfl.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "fl/exchange.hpp"
#include "forecast/fused.hpp"
#include "forecast/metrics.hpp"
#include "obs/metrics.hpp"
#include "util/shard.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {

const char* aggregation_mode_name(AggregationMode m) noexcept {
  switch (m) {
    case AggregationMode::kDecentralized: return "decentralized";
    case AggregationMode::kCentralized: return "centralized";
    case AggregationMode::kNone: return "local";
  }
  return "?";
}

namespace {
net::TopologyKind topology_for(AggregationMode m) noexcept {
  return m == AggregationMode::kCentralized ? net::TopologyKind::kStar
                                            : net::TopologyKind::kFullMesh;
}

// Forecast bus = bus id 1 in the experiment's fault-seed namespace (the
// DRL federation bus is id 2). Only derived when the plan itself carries
// no seed, so explicit FaultPlan::seed always wins.
net::FaultPlan seeded_fault(net::FaultPlan fault, std::uint64_t exp_seed) {
  if (fault.seed == 0) fault.seed = net::derive_fault_seed(exp_seed, 1);
  return fault;
}
}  // namespace

DflTrainer::DflTrainer(const std::vector<data::HouseholdTrace>& traces,
                       DflConfig cfg)
    : traces_(traces),
      cfg_(cfg),
      router_(cfg.shards > 1
                  ? std::make_unique<net::ShardRouter>(
                        std::max<std::size_t>(1, traces.size()), cfg.shards)
                  : nullptr),
      bus_(net::Topology(cfg.topology.value_or(topology_for(cfg.aggregation)),
                         std::max<std::size_t>(1, traces.size()),
                         cfg.topology_options),
           seeded_fault(cfg.fault, cfg.seed)) {
  if (router_) bus_.set_shard_router(router_.get());
  if (traces_.empty()) throw std::invalid_argument("DflTrainer: no traces");
  if (cfg_.secure_aggregation &&
      (!cfg_.fault.reliable() || cfg_.robustness.degraded())) {
    throw std::invalid_argument(
        "DflTrainer: secure aggregation needs a reliable link and no "
        "degradation policy (pairwise masks only cancel under full "
        "participation)");
  }
  const net::TopologyKind bus_kind = bus_.topology().kind();
  if (cfg_.secure_aggregation && bus_kind != net::TopologyKind::kFullMesh &&
      bus_kind != net::TopologyKind::kStar) {
    throw std::invalid_argument(
        "DflTrainer: secure aggregation needs a full-view topology "
        "(full_mesh or star) — sparse broadcasts leave masks uncancelled");
  }
  const std::size_t minutes = traces_.front().minutes();
  for (const auto& t : traces_) {
    if (t.minutes() != minutes) {
      throw std::invalid_argument("DflTrainer: trace length mismatch");
    }
  }
  agents_.resize(traces_.size());
  for (std::size_t h = 0; h < traces_.size(); ++h) {
    for (std::size_t d = 0; d < traces_[h].devices.size(); ++d) {
      // Same (method, window, seed) everywhere: the paper requires all
      // residences to start from the same default model per device type,
      // otherwise averaging mixes incompatible coordinate systems.
      const auto type =
          static_cast<std::uint64_t>(traces_[h].devices[d].spec.type);
      agents_[h].devices.push_back(forecast::make_forecaster(
          cfg_.method, cfg_.window, cfg_.seed * 1000 + type));
    }
  }
}

DflTrainer::~DflTrainer() = default;

std::size_t DflTrainer::run(std::size_t train_begin, std::size_t train_end) {
  const auto round_minutes = static_cast<std::size_t>(
      cfg_.broadcast_period_hours * 60.0);
  if (round_minutes == 0) {
    throw std::invalid_argument("DflTrainer: broadcast period too small");
  }
  std::size_t rounds = 0;
  for (std::size_t begin = train_begin; begin < train_end;
       begin += round_minutes) {
    round(begin, std::min(begin + round_minutes, train_end));
    ++rounds;
  }
  return rounds;
}

void DflTrainer::round(std::size_t begin, std::size_t end) {
  std::optional<obs::SpanTimer> round_span;
  if (cfg_.metrics != nullptr) {
    round_span.emplace(cfg_.metrics->histogram("dfl.round_seconds"),
                       &cfg_.metrics->series("dfl.round_seconds_series"));
  }
  // Local training step: every (agent, device) pair trains on the newly
  // recorded minutes. Pairs are independent; they train in fused groups
  // (docs/fused_training.md) of one shard's jobs each — an unsharded run
  // is cut into one group per pool worker — one pool task per group.
  std::vector<std::size_t> job_homes;
  std::vector<std::size_t> job_devs;
  for (std::size_t h = 0; h < agents_.size(); ++h) {
    for (std::size_t d = 0; d < agents_[h].devices.size(); ++d) {
      job_homes.push_back(h);
      job_devs.push_back(d);
    }
  }
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::vector<std::size_t> groups =
      util::job_groups(job_homes, agents_.size(), cfg_.shards, pool.size());
  // Groups that could not fuse this round. Relaxed atomic: groups only
  // accumulate; the fold happens once below.
  std::atomic<std::uint64_t> round_fallbacks{0};
  // Small-batch training (paper Table 2): federated agents train on a
  // bounded sample of each round's windows and lean on aggregation for
  // coverage; the Local baseline (kNone) uses everything it has. The
  // span/stride arithmetic is home-independent (every forecaster shares
  // cfg_.window), which is what lets a group share one config.
  forecast::TrainConfig train =
      forecast::resolve_train_config(cfg_.method, cfg_.train);
  const std::size_t hist = data::history_needed(cfg_.window);
  const std::size_t span = end > begin + hist ? end - begin - hist : 0;
  if (cfg_.max_round_samples > 0 &&
      cfg_.aggregation != AggregationMode::kNone &&
      span / std::max<std::size_t>(1, train.stride) > cfg_.max_round_samples) {
    train.stride =
        (span + cfg_.max_round_samples - 1) / cfg_.max_round_samples;
  }
  // Per-epoch training windows of one job (the dfl.train_windows unit).
  const std::uint64_t windows_per_job =
      span / std::max<std::size_t>(1, train.stride);
  const auto train_group = [&](std::size_t g) {
    const std::size_t gb = groups[g];
    const std::size_t ge = groups[g + 1];
    // Per-job RNGs forked deterministically: results depend neither on
    // the thread schedule nor on how jobs are grouped.
    std::vector<util::Rng> rngs;
    rngs.reserve(ge - gb);
    for (std::size_t j = gb; j < ge; ++j) {
      rngs.push_back(util::Rng(cfg_.seed).fork(
          rounds_done_ * 10000 + job_homes[j] * 100 + job_devs[j]));
    }
    std::vector<forecast::FusedTrainJob> fjobs(ge - gb);
    for (std::size_t j = gb; j < ge; ++j) {
      fjobs[j - gb] = {agents_[job_homes[j]].devices[job_devs[j]].get(),
                       &traces_[job_homes[j]].devices[job_devs[j]],
                       &rngs[j - gb], 0.0};
    }
    // A trainer per group and round: nothing it sizes outlives the round.
    forecast::FusedForecastTrainer trainer;
    if (!trainer.train(fjobs, begin, end, train)) {
      // Closed-form method (or mismatched shapes): per-job training with
      // the still-unconsumed forked RNGs, counted as a fused fallback.
      round_fallbacks.fetch_add(1, std::memory_order_relaxed);
      for (forecast::FusedTrainJob& fj : fjobs) {
        fj.forecaster->train(*fj.trace, begin, end, train, *fj.rng);
      }
    }
  };
  const util::ShardTiming timing = util::sharded_for(
      pool, groups.size() - 1, cfg_.shards,
      [&](std::size_t g) {
        return util::shard_of(job_homes[groups[g]], agents_.size(),
                              cfg_.shards);
      },
      train_group);
  fused_fallbacks_ += round_fallbacks.load(std::memory_order_relaxed);
  if (cfg_.metrics != nullptr) {
    obs::record_shard_timing(*cfg_.metrics, "dfl.shard", timing);
  }

  if (cfg_.aggregation != AggregationMode::kNone && agents_.size() > 1) {
    broadcast_and_aggregate(rounds_done_);
  }
  ++rounds_done_;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("dfl.rounds").add(1);
    cfg_.metrics->counter("dfl.devices_trained").add(job_homes.size());
    cfg_.metrics->counter("dfl.train_windows")
        .add(job_homes.size() * windows_per_job);
    cfg_.metrics->counter("forecast.fused_fallbacks").set(fused_fallbacks_);
    obs::record_bus_stats(*cfg_.metrics, "bus.forecast", bus_.stats());
    if (router_) {
      obs::record_shard_router_stats(*cfg_.metrics, "bus.forecast",
                                     router_->stats());
    }
  }
}

void DflTrainer::broadcast_and_aggregate(std::uint64_t round_id) {
  // One exchange item per (home, device); the engine owns the whole
  // broadcast → relay → drain → sort → shape-guard → average round
  // (Alg. 1's aggregation step). Forecasters expose no mutable flat
  // span, so the averaged result arrives through the commit callback.
  struct Slot {
    std::size_t home, dev;
  };
  std::vector<Slot> slots;
  std::vector<ExchangeItem> items;
  for (std::size_t h = 0; h < agents_.size(); ++h) {
    for (std::size_t d = 0; d < agents_[h].devices.size(); ++d) {
      const auto type =
          static_cast<std::uint32_t>(traces_[h].devices[d].spec.type);
      slots.push_back({h, d});
      items.push_back({.agent = static_cast<net::AgentId>(h),
                       .device_type = type,
                       .send = agents_[h].devices[d]->parameters(),
                       .in_place = {}});
    }
  }

  const SecureAggregator aggregator(cfg_.secure);
  ParamExchange::Options options;
  options.kind = net::MessageKind::kForecastParams;
  options.secure = cfg_.secure_aggregation ? &aggregator : nullptr;
  options.metrics = cfg_.metrics;
  options.group_size_histogram = "dfl.agg_group_size";
  options.policy = cfg_.robustness;
  options.parallel = router_ != nullptr;
  ParamExchange exchange(bus_, options);
  const ExchangeStats stats = exchange.round(
      items, round_id, [&](std::size_t i, std::span<const double> averaged) {
        agents_[slots[i].home].devices[slots[i].dev]->set_parameters(averaged);
      });

  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("dfl.contributions_accepted").add(stats.accepted);
    cfg_.metrics->counter("dfl.contributions_rejected").add(stats.rejected);
  }
}

const forecast::Forecaster& DflTrainer::forecaster(std::size_t home,
                                                   std::size_t dev) const {
  return *agents_.at(home).devices.at(dev);
}

forecast::Forecaster& DflTrainer::mutable_forecaster(std::size_t home,
                                                     std::size_t dev) {
  return *agents_.at(home).devices.at(dev);
}

double DflTrainer::mean_test_accuracy(std::size_t begin,
                                      std::size_t end) const {
  util::RunningStats stats;
  for (double acc : per_agent_accuracy(begin, end)) stats.add(acc);
  return stats.mean();
}

std::vector<double> DflTrainer::per_agent_accuracy(std::size_t begin,
                                                   std::size_t end) const {
  std::vector<double> out(agents_.size(), 0.0);
  util::ThreadPool::global().parallel_for(0, agents_.size(), [&](std::size_t h) {
    util::RunningStats stats;
    for (std::size_t d = 0; d < agents_[h].devices.size(); ++d) {
      const auto result = forecast::evaluate(*agents_[h].devices[d],
                                             traces_[h].devices[d], begin, end);
      if (result.samples > 0) stats.add(result.mean_accuracy);
    }
    out[h] = stats.mean();
  });
  return out;
}

}  // namespace pfdrl::fl
