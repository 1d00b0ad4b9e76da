#include "fl/dfl.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>

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
           seeded_fault(cfg.fault, cfg.seed)),
      pipeline_(federates() ? shard_broadcast_graph(bus_.topology(),
                                                    router_.get())
                            : self_only_graph(router_ ? router_->num_shards()
                                                      : 1),
                cfg.metrics, "dfl") {
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
  // Same (method, window, seed) everywhere: the paper requires all
  // residences to start from the same default model per device type,
  // otherwise averaging mixes incompatible coordinate systems. Each seed's
  // model is drawn once; later forecasters clone the first.
  std::unordered_map<std::uint64_t, const forecast::Forecaster*> initial;
  for (std::size_t h = 0; h < traces_.size(); ++h) {
    for (std::size_t d = 0; d < traces_[h].devices.size(); ++d) {
      const auto type =
          static_cast<std::uint64_t>(traces_[h].devices[d].spec.type);
      const std::uint64_t seed = cfg_.seed * 1000 + type;
      auto& devices = agents_[h].devices;
      if (const auto it = initial.find(seed); it != initial.end()) {
        devices.push_back(it->second->clone());
      } else {
        devices.push_back(
            forecast::make_forecaster(cfg_.method, cfg_.window, seed));
        initial.emplace(seed, devices.back().get());
      }
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
  const auto windows = round_windows(train_begin, train_end, round_minutes);
  run_rounds(windows);
  return windows.size();
}

void DflTrainer::round(std::size_t begin, std::size_t end) {
  run_rounds({{begin, end}});
}

void DflTrainer::run_rounds(
    const std::vector<std::pair<std::size_t, std::size_t>>& windows) {
  if (windows.empty()) return;
  util::ThreadPool& pool = util::ThreadPool::global();

  // One job — and one exchange item — per (home, device), home-major.
  // Jobs train in fused groups (docs/fused_training.md): one per shard,
  // or one per pool worker when the run is one shard.
  std::vector<std::size_t> job_homes;
  std::vector<std::size_t> job_devs;
  for (std::size_t h = 0; h < agents_.size(); ++h) {
    for (std::size_t d = 0; d < agents_[h].devices.size(); ++d) {
      job_homes.push_back(h);
      job_devs.push_back(d);
    }
  }
  const util::JobSlices slices = util::slice_jobs(
      job_homes, agents_.size(), pipeline_.shards(), pool.size());
  const std::vector<std::size_t>& groups = slices.group_begin;

  // Small-batch training (paper Table 2): federated agents train on a
  // bounded sample of each round's windows and lean on aggregation for
  // coverage; the Local baseline (kNone) uses everything it has. The
  // span/stride arithmetic is home-independent (every forecaster shares
  // cfg_.window), which is what lets a group share one config.
  const forecast::TrainConfig base =
      forecast::resolve_train_config(cfg_.method, cfg_.train);
  const std::size_t hist = data::history_needed(cfg_.window);
  std::vector<forecast::TrainConfig> train(windows.size(), base);
  // Per-epoch training windows of one job (the dfl.train_windows unit).
  std::vector<std::uint64_t> windows_per_job(windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto [begin, end] = windows[w];
    const std::size_t span = end > begin + hist ? end - begin - hist : 0;
    if (cfg_.max_round_samples > 0 &&
        cfg_.aggregation != AggregationMode::kNone &&
        span / std::max<std::size_t>(1, base.stride) >
            cfg_.max_round_samples) {
      train[w].stride =
          (span + cfg_.max_round_samples - 1) / cfg_.max_round_samples;
    }
    windows_per_job[w] = span / std::max<std::size_t>(1, train[w].stride);
  }

  const std::uint64_t r0 = rounds_done_;
  const auto train_group = [&](std::size_t g, std::uint64_t r) {
    const auto [begin, end] = windows[static_cast<std::size_t>(r - r0)];
    const std::size_t gb = groups[g];
    const std::size_t ge = groups[g + 1];
    // Per-job RNGs forked from (seed, round, home, dev): results depend
    // neither on the schedule nor on how jobs are grouped.
    std::vector<util::Rng> rngs;
    rngs.reserve(ge - gb);
    for (std::size_t j = gb; j < ge; ++j) {
      rngs.push_back(util::Rng(cfg_.seed).fork(r * 10000 + job_homes[j] * 100 +
                                               job_devs[j]));
    }
    std::vector<forecast::FusedTrainJob> fjobs(ge - gb);
    for (std::size_t j = gb; j < ge; ++j) {
      fjobs[j - gb] = {agents_[job_homes[j]].devices[job_devs[j]].get(),
                       &traces_[job_homes[j]].devices[job_devs[j]],
                       &rngs[j - gb], 0.0};
    }
    const forecast::TrainConfig& tc = train[static_cast<std::size_t>(r - r0)];
    if (forecast::minibatch_method(cfg_.method)) {
      forecast::FusedForecastTrainer().train(fjobs, begin, end, tc);
    } else {
      // LR and SVR have their own training loops: one job at a time.
      for (forecast::FusedTrainJob& fj : fjobs) {
        fj.forecaster->train(*fj.trace, begin, end, tc, *fj.rng);
      }
    }
  };

  // Alg. 1's aggregation step: one exchange session for every round of
  // this call. Forecasters expose no mutable flat span, so the averaged
  // result arrives through the commit callback.
  const SecureAggregator aggregator(cfg_.secure);
  std::optional<StagedExchange> staged;
  if (federates()) {
    std::vector<ExchangeItem> items;
    for (std::size_t j = 0; j < job_homes.size(); ++j) {
      const std::size_t h = job_homes[j];
      const std::size_t d = job_devs[j];
      items.push_back(
          {.agent = static_cast<net::AgentId>(h),
           .device_type =
               static_cast<std::uint32_t>(traces_[h].devices[d].spec.type),
           .send = agents_[h].devices[d]->parameters(),
           .in_place = {}});
    }
    ParamExchange::Options options;
    options.kind = net::MessageKind::kForecastParams;
    options.secure = cfg_.secure_aggregation ? &aggregator : nullptr;
    options.metrics = cfg_.metrics;
    options.group_size_histogram = "dfl.agg_group_size";
    options.policy = cfg_.robustness;
    staged.emplace(bus_, std::move(options), std::move(items));
  }
  const ParamExchange::CommitFn commit =
      [&](std::size_t j, std::span<const double> averaged) {
        agents_[job_homes[j]].devices[job_devs[j]]->set_parameters(averaged);
      };

  RoundPipeline::Ops ops;
  ops.compute = [&](std::size_t s, std::uint64_t r) {
    // A sharded run has one group per shard; one shard spreads its
    // groups over the pool.
    pool.parallel_for(slices.shard_group_begin[s],
                      slices.shard_group_begin[s + 1],
                      [&](std::size_t g) { train_group(g, r); });
  };
  if (staged) {
    ops.publish = [&](std::size_t s, std::uint64_t r) {
      staged->publish_shard(s, r);
    };
    if (staged->has_hub()) {
      ops.hub = [&](std::uint64_t r) { staged->hub_step(r); };
    }
    ops.apply = [&](std::size_t s, std::uint64_t r) {
      staged->apply_shard(s, r, commit);
    };
  }
  ops.round_done = [&](std::uint64_t r) {
    rounds_done_ = r + 1;
    if (cfg_.metrics == nullptr) return;
    cfg_.metrics->counter("dfl.devices_trained").add(job_homes.size());
    cfg_.metrics->counter("dfl.train_windows")
        .add(job_homes.size() * windows_per_job[static_cast<std::size_t>(r - r0)]);
  };
  pipeline_.run(pool, r0, windows.size(), ops);

  if (cfg_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *cfg_.metrics;
    if (staged) {
      const ExchangeStats stats = staged->stats();
      reg.counter("dfl.contributions_accepted").add(stats.accepted);
      reg.counter("dfl.contributions_rejected").add(stats.rejected);
      staged->record_metrics(windows.size());
    }
    obs::record_bus_stats(reg, "bus.forecast", bus_.stats());
    if (router_) {
      obs::record_shard_router_stats(reg, "bus.forecast", router_->stats());
    }
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
