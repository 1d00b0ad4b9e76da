#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "forecast/metrics.hpp"
#include "net/shard_router.hpp"
#include "obs/metrics.hpp"
#include "rl/fused.hpp"
#include "util/shard.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::core {

bool shares_ems_plans(EmsMethod m) noexcept {
  return m == EmsMethod::kFrl || m == EmsMethod::kPfdrl;
}

namespace {

fl::AggregationMode forecast_aggregation(EmsMethod m) noexcept {
  switch (m) {
    case EmsMethod::kLocal: return fl::AggregationMode::kNone;
    case EmsMethod::kFl:
    case EmsMethod::kFrl: return fl::AggregationMode::kCentralized;
    case EmsMethod::kPfdrl: return fl::AggregationMode::kDecentralized;
    case EmsMethod::kCloud: break;  // handled by CloudTrainer
  }
  return fl::AggregationMode::kNone;
}

}  // namespace

EmsPipeline::EmsPipeline(const std::vector<data::HouseholdTrace>& traces,
                         PipelineConfig cfg)
    : traces_(traces),
      cfg_(cfg),
      runner_(
          traces_,
          [this](std::size_t home, std::size_t dev, std::size_t begin,
                 std::size_t end) {
            return forecast_series(home, dev, begin, end);
          },
          cfg_.meter_interval_minutes, &metrics()),
      shards_(std::clamp<std::size_t>(cfg.shards, 1,
                                      std::max<std::size_t>(1, traces.size()))) {
  if (traces_.empty()) throw std::invalid_argument("EmsPipeline: no traces");
  if (shards_ > 1) {
    metrics().gauge("ems.shard.count").set(static_cast<double>(shards_));
  }

  // Forecasting backend.
  if (cfg_.method == EmsMethod::kCloud) {
    fl::CloudConfig cc;
    cc.method = cfg_.forecast_method;
    cc.window = cfg_.window;
    cc.train = cfg_.forecast_train;
    cc.round_period_hours = cfg_.beta_hours;
    cc.seed = cfg_.seed;
    cloud_.emplace(traces_, cc);
  } else {
    fl::DflConfig dc;
    dc.method = cfg_.forecast_method;
    dc.window = cfg_.window;
    dc.train = cfg_.forecast_train;
    dc.broadcast_period_hours = cfg_.beta_hours;
    dc.aggregation = forecast_aggregation(cfg_.method);
    dc.secure_aggregation =
        cfg_.secure_aggregation &&
        dc.aggregation != fl::AggregationMode::kNone;
    dc.seed = cfg_.seed;
    dc.fault = cfg_.fault;  // seed 0 → DflTrainer derives bus-1 stream
    dc.robustness = cfg_.robustness;
    dc.metrics = &metrics();
    dc.shards = cfg_.shards;
    dc.topology = cfg_.topology;
    dc.topology_options = cfg_.topology_options;
    dfl_.emplace(traces_, dc);
  }

  // One DQN per (home, actionable device). Protected devices (fridge,
  // HVAC, water heater — autonomous duty cyclers) are metered and
  // forecast but never actuated, so they get no agent (nullptr slot).
  // Weight seed is shared across residences per device type (homologous
  // networks must start identical for averaging to be meaningful), so
  // each seed's network is drawn once and later agents copy the first
  // agent's; exploration seeds differ per home.
  std::unordered_map<std::uint64_t, const nn::Mlp*> initial;  // by seed
  agents_.resize(traces_.size());
  for (std::size_t h = 0; h < traces_.size(); ++h) {
    agents_[h].reserve(traces_[h].devices.size());
    for (std::size_t d = 0; d < traces_[h].devices.size(); ++d) {
      if (traces_[h].devices[d].spec.protected_device) {
        agents_[h].push_back(nullptr);
        continue;
      }
      rl::DqnConfig qc = cfg_.dqn;
      qc.state_dim = ems::EmsEnvironment::kStateDim;
      qc.num_actions = ems::kNumActions;
      const auto type =
          static_cast<std::uint64_t>(traces_[h].devices[d].spec.type);
      qc.seed = cfg_.seed * 7919 + type;
      qc.exploration_seed = cfg_.seed * 104729 + h * 257 + type + 1;
      if (const auto it = initial.find(qc.seed); it != initial.end()) {
        agents_[h].push_back(std::make_unique<rl::DqnAgent>(qc, *it->second));
      } else {
        agents_[h].push_back(std::make_unique<rl::DqnAgent>(qc));
        initial.emplace(qc.seed, &agents_[h].back()->network());
      }
    }
  }

  if (shares_ems_plans(cfg_.method)) {
    const rl::DqnAgent* any = nullptr;
    for (const auto& home : agents_) {
      for (const auto& a : home) {
        if (a) { any = a.get(); break; }
      }
      if (any) break;
    }
    if (any == nullptr) {
      throw std::invalid_argument("EmsPipeline: no actionable devices");
    }
    const std::size_t layers = any->network().num_layers();
    const std::size_t share =
        cfg_.method == EmsMethod::kFrl ? layers
                                       : std::min(cfg_.alpha, layers);
    const auto topology = cfg_.topology.value_or(
        cfg_.method == EmsMethod::kFrl ? net::TopologyKind::kStar
                                       : net::TopologyKind::kFullMesh);
    // The DRL plan exchange rides the same fault plan as the forecast
    // path but on its own RNG stream (bus id 2) so the two buses never
    // share a drop mask; the per-type shape guard keeps averaging
    // well-formed when contributions go missing.
    net::FaultPlan drl_fault = cfg_.fault;
    if (drl_fault.seed == 0) {
      drl_fault.seed = net::derive_fault_seed(cfg_.seed, 2);
    }
    federation_.emplace(traces_.size(), share, topology, std::move(drl_fault),
                        &metrics(), cfg_.robustness, cfg_.topology_options,
                        cfg_.shards);
  }
  rounds_.emplace(federates()
                      ? fl::shard_broadcast_graph(federation_->bus().topology(),
                                                  federation_->shard_router())
                      : fl::self_only_graph(shards_),
                  &metrics(), "ems");
}

EmsPipeline::~EmsPipeline() = default;

void EmsPipeline::train_forecasters(std::size_t begin, std::size_t end) {
  obs::SpanTimer span(metrics().histogram("forecast.train_seconds"));
  if (cloud_) {
    cloud_->run(begin, end);
  } else {
    dfl_->run(begin, end);
  }
  // Model parameters moved: every cached forecast series is stale.
  runner_.invalidate_forecasts();
}

double EmsPipeline::forecast_accuracy(std::size_t begin,
                                      std::size_t end) const {
  // The per-home and per-device means of mean_test_accuracy, in its order.
  std::vector<double> per_home(traces_.size(), 0.0);
  util::ThreadPool::global().parallel_for(0, traces_.size(), [&](std::size_t h) {
    util::RunningStats stats;
    for (std::size_t d = 0; d < traces_[h].devices.size(); ++d) {
      const auto& trace = traces_[h].devices[d];
      const auto series = runner_.series(h, d, begin, end);
      // The series holds the model's predictions for the targets
      // [first, min(end, minutes)) behind a padded prefix (see
      // forecast_series): exactly what predict_series returns.
      const std::size_t first =
          data::first_feasible_target(model_for(h, d).window_config(), begin);
      const std::size_t last = std::min(end, trace.minutes());
      const std::size_t n = last > first ? last - first : 0;
      const auto result = forecast::score(
          std::span(*series).subspan(n > 0 ? first - begin : 0, n), trace,
          first);
      if (result.samples > 0) stats.add(result.mean_accuracy);
    }
    per_home[h] = stats.mean();
  });
  util::RunningStats stats;
  for (double acc : per_home) stats.add(acc);
  return stats.mean();
}

const forecast::Forecaster& EmsPipeline::model_for(std::size_t home,
                                                   std::size_t dev) const {
  return cloud_ ? cloud_->model_for_type(traces_[home].devices[dev].spec.type)
                : dfl_->forecaster(home, dev);
}

std::vector<double> EmsPipeline::forecast_series(std::size_t home,
                                                 std::size_t dev,
                                                 std::size_t begin,
                                                 std::size_t end) const {
  const auto& trace = traces_[home].devices[dev];
  const forecast::Forecaster& model = model_for(home, dev);
  auto series = model.predict_series(trace, begin, end);
  // predict_series targets start at max(begin, window): pad the leading
  // minutes (no history yet) with the real reading so indices align.
  const std::size_t first =
      data::first_feasible_target(model.window_config(), begin);
  std::vector<double> out;
  out.reserve(end - begin);
  for (std::size_t m = begin; m < first && m < end; ++m) {
    out.push_back(trace.watts[m]);
  }
  out.insert(out.end(), series.begin(), series.end());
  out.resize(end - begin, trace.spec.standby_watts);
  return out;
}

EmsPipeline::EmsRoundPlan EmsPipeline::prepare_round_plan() {
  EmsRoundPlan plan;
  for (std::size_t h = 0; h < agents_.size(); ++h) {
    for (std::size_t d = 0; d < agents_[h].size(); ++d) {
      if (agents_[h][d]) {
        plan.jobs.push_back({h, d});
        plan.job_homes.push_back(h);
      }
    }
  }
  // Fused groups (docs/fused_training.md): one per shard, or one per pool
  // worker when unsharded. Per-agent act/remember/learn sequences do not
  // depend on the grouping, so neither do the results.
  plan.slices = util::slice_jobs(plan.job_homes, agents_.size(), shards_,
                                 util::ThreadPool::global().size());
  const std::size_t groups = plan.slices.group_begin.size() - 1;
  while (fused_learners_.size() < groups) {
    fused_learners_.push_back(std::make_unique<rl::FusedDqnLearner>());
  }
  return plan;
}

void EmsPipeline::run_ems_group(const EmsRoundPlan& plan, std::size_t g,
                                std::size_t begin, std::size_t end,
                                const EmsRoundCounters& counters) {
  // The group's rollouts run in lockstep, one decision step per meter
  // interval: each agent commits a mode when a fresh reading arrives,
  // holds it until the next report and banks the reward integrated over
  // the held interval; on learn ticks the group's minibatches stack into
  // one fused learn step.
  const std::size_t stride =
      std::max<std::size_t>(1, cfg_.meter_interval_minutes);
  const std::size_t gb = plan.slices.group_begin[g];
  const std::size_t n = plan.slices.group_begin[g + 1] - gb;
  std::vector<ems::EmsEnvironment> envs;
  std::vector<rl::DqnAgent*> group_agents;
  envs.reserve(n);
  group_agents.reserve(n);
  for (std::size_t j = gb; j < gb + n; ++j) {
    const auto [h, d] = plan.jobs[j];
    envs.push_back(runner_.environment(h, d, begin, end));
    group_agents.push_back(agents_[h][d].get());
  }
  // Every environment spans exactly [begin, end): forecast series are
  // padded to the window, so a group can never be ragged.
  const std::size_t len = end - begin;
  for (const ems::EmsEnvironment& env : envs) {
    if (env.length() != len) {
      throw std::logic_error("EmsPipeline: ragged EMS group");
    }
  }
  std::uint64_t steps = 0;
  std::uint64_t learns = 0;
  std::vector<std::array<double, ems::EmsEnvironment::kStateDim>> states(n);
  std::vector<std::array<double, ems::EmsEnvironment::kStateDim>>
      next_states(n);
  for (std::size_t i = 0; i < n; ++i) envs[i].state_into(0, states[i]);
  std::vector<double> losses(n);
  rl::FusedDqnLearner& learner = *fused_learners_[g];
  const std::uint64_t hits_before = learner.cache_hits();
  const std::uint64_t misses_before = learner.cache_misses();
  for (std::size_t t = 0; t < len; t += stride) {
    const std::size_t t_next = std::min(t + stride, len);
    const bool terminal = t_next >= len;
    for (std::size_t i = 0; i < n; ++i) {
      rl::DqnAgent& agent = *group_agents[i];
      const ems::EmsEnvironment& env = envs[i];
      const int action = agent.act(states[i]);
      double r = 0.0;
      for (std::size_t m = t; m < t_next; ++m) {
        r += env.reward_at(m, action);
      }
      if (terminal) {
        next_states[i] = states[i];
      } else {
        env.state_into(t_next, next_states[i]);
      }
      agent.remember({{states[i].begin(), states[i].end()},
                      action,
                      r,
                      {next_states[i].begin(), next_states[i].end()},
                      terminal});
      states[i] = next_states[i];
    }
    // `t` is a minute offset but advances one meter interval per step:
    // learn whenever the step's interval [t, t+stride) crosses a
    // multiple of the learn period, so the average learn cadence is one
    // step per learn_every_minutes of simulated time regardless of the
    // meter interval (and unaliased against `begin`). The gate depends
    // only on (begin, t), so the whole group learns on the same ticks.
    if ((begin + t) % cfg_.learn_every_minutes < stride) {
      // Every agent is built from cfg_.dqn, so the group always fuses.
      if (!learner.learn(group_agents, losses)) {
        throw std::logic_error("EmsPipeline: EMS group did not fuse");
      }
      learns += n;
    }
    steps += n;
  }
  counters.env_steps.add(steps);
  counters.replay_pushes.add(steps);
  counters.learn_calls.add(learns);
  counters.target_cache_hits.add(learner.cache_hits() - hits_before);
  counters.target_cache_misses.add(learner.cache_misses() - misses_before);
}

void EmsPipeline::train_ems(std::size_t begin, std::size_t end) {
  const auto round_minutes =
      static_cast<std::size_t>(cfg_.gamma_hours * 60.0);
  if (round_minutes == 0) {
    throw std::invalid_argument("EmsPipeline: gamma too small");
  }
  const auto windows = fl::round_windows(begin, end, round_minutes);
  if (windows.empty()) return;

  obs::MetricsRegistry& reg = metrics();
  const EmsRoundCounters counters{reg.counter("ems.env_steps"),
                                  reg.counter("ems.replay_pushes"),
                                  reg.counter("ems.learn_calls"),
                                  reg.counter("rl.target_cache_hits"),
                                  reg.counter("rl.target_cache_misses")};
  obs::Gauge& eps_gauge = reg.gauge("ems.epsilon");
  obs::Series& eps_series = reg.series("ems.epsilon_series");

  const EmsRoundPlan plan = prepare_round_plan();
  util::ThreadPool& pool = util::ThreadPool::global();

  // Home-major federated device list, made once: the staged session holds
  // spans into the live networks, which never move during training.
  std::vector<FederatedDevice> devices;
  struct StagedEnd {  // tear the session down even when a shard throws
    DrlFederation* fed = nullptr;
    ~StagedEnd() {
      if (fed != nullptr) fed->end_staged_rounds();
    }
  } staged_end;
  if (federates()) {
    devices.reserve(plan.jobs.size());
    for (const auto& [h, d] : plan.jobs) {
      devices.push_back(
          {static_cast<net::AgentId>(h),
           static_cast<std::uint32_t>(traces_[h].devices[d].spec.type),
           agents_[h][d].get()});
    }
    federation_->begin_staged_rounds(devices);
    staged_end.fed = &*federation_;
  }

  const std::uint64_t r0 = ems_rounds_done_;
  std::uint64_t seg_first = r0;
  // Per-(round, job) exploration rates, flat-summed in ascending job
  // order at round_done, so the recorded mean never depends on the shard
  // count (per-shard partial sums would drift in ulps).
  std::vector<std::vector<double>> round_eps;
  std::mutex restart_mutex;

  fl::RoundPipeline::Ops ops;
  ops.compute = [&](std::size_t s, std::uint64_t r) {
    // Warm-restart hook: a residence whose crash window ended with the
    // previous round re-enters this round having lost its process state;
    // the installed hook (sim::SnapshotManager) reloads it from its last
    // snapshot before any new experience is collected. Restarts apply to
    // every home in the shard, agents or not. Calls are serialized;
    // distinct homes restore independent state, so cross-shard order
    // doesn't matter.
    if (on_home_restart_ && r > 0) {
      const net::FailureSchedule& failures = cfg_.robustness.failures;
      const std::size_t homes = traces_.size();
      if (!failures.crashes.empty()) {
        for (std::size_t h = util::shard_begin(s, homes, shards_);
             h < util::shard_begin(s + 1, homes, shards_); ++h) {
          const auto id = static_cast<net::AgentId>(h);
          if (failures.crashed(id, r - 1) && !failures.crashed(id, r)) {
            std::lock_guard<std::mutex> lock(restart_mutex);
            on_home_restart_(h);
          }
        }
      }
    }
    // A sharded run has one group per shard; one shard spreads its groups
    // (one per pool worker) over the pool.
    const auto [wb, we] = windows[static_cast<std::size_t>(r - r0)];
    pool.parallel_for(plan.slices.shard_group_begin[s],
                      plan.slices.shard_group_begin[s + 1],
                      [&](std::size_t g) {
                        run_ems_group(plan, g, wb, we, counters);
                      });
    std::vector<double>& eps = round_eps[static_cast<std::size_t>(r - seg_first)];
    for (std::size_t j = plan.slices.shard_job_begin[s];
         j < plan.slices.shard_job_begin[s + 1]; ++j) {
      const auto [h, d] = plan.jobs[j];
      eps[j] = agents_[h][d]->epsilon();
    }
  };
  if (federates()) {
    ops.publish = [this](std::size_t s, std::uint64_t r) {
      federation_->publish_staged(s, r);
    };
    if (federation_->bus().topology().kind() == net::TopologyKind::kStar) {
      ops.hub = [this](std::uint64_t r) { federation_->hub_staged(r); };
    }
    ops.apply = [this](std::size_t s, std::uint64_t r) {
      federation_->apply_staged(s, r);
    };
  }
  ops.round_done = [&](std::uint64_t r) {
    if (!plan.jobs.empty()) {
      // Mean exploration rate across agents after this round — the
      // epsilon trajectory is the quickest convergence sanity check.
      double eps_sum = 0.0;
      for (const double e : round_eps[static_cast<std::size_t>(r - seg_first)]) {
        eps_sum += e;
      }
      const double mean = eps_sum / static_cast<double>(plan.jobs.size());
      eps_gauge.set(mean);
      eps_series.append(mean);
    }
    ems_rounds_done_ = r + 1;
  };

  // Segments: the pipeline quiesces (the one remaining full barrier)
  // only where the round-end hook fires; with no hook the whole window
  // is one segment.
  const std::size_t nrounds = windows.size();
  const std::size_t seg_len =
      (on_round_end_ && on_round_end_every_ > 0)
          ? static_cast<std::size_t>(on_round_end_every_)
          : nrounds;
  std::size_t done = 0;
  while (done < nrounds) {
    const std::size_t seg = std::min(seg_len, nrounds - done);
    seg_first = r0 + done;
    round_eps.assign(seg, std::vector<double>(plan.jobs.size(), 0.0));
    rounds_->run(pool, r0 + done, seg, ops);
    done += seg;
    if (federates()) federation_->fold_staged_metrics(seg);
    if (on_round_end_) on_round_end_(ems_rounds_done_);
  }
}

void EmsPipeline::for_each_greedy_rollout(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, const ems::EmsEnvironment&,
                             const std::vector<int>&)>& visit) const {
  const std::size_t homes = traces_.size();
  const util::ShardTiming timing = util::sharded_for(
      util::ThreadPool::global(), homes, shards_,
      [&](std::size_t h) { return util::shard_of(h, homes, shards_); },
      [&](std::size_t h) {
        for (std::size_t d = 0; d < agents_[h].size(); ++d) {
          if (!agents_[h][d]) continue;
          const ems::EmsEnvironment env = runner_.environment(h, d, begin, end);
          visit(h, env, EpisodeRunner::greedy_actions(*agents_[h][d], env));
        }
      });
  obs::record_shard_timing(metrics(), "ems.eval_shard", timing);
}

std::vector<ems::EpisodeResult> EmsPipeline::evaluate(std::size_t begin,
                                                      std::size_t end) const {
  std::vector<ems::EpisodeResult> per_home(traces_.size());
  // visit runs on the worker owning home h: per_home[h] has one writer.
  for_each_greedy_rollout(
      begin, end,
      [&](std::size_t h, const ems::EmsEnvironment& env,
          const std::vector<int>& actions) {
        per_home[h].merge(ems::score_actions(env, actions));
      });
  return per_home;
}

std::vector<double> EmsPipeline::evaluate_savings_dollars(
    std::size_t begin, std::size_t end, const data::Tariff& tariff,
    std::size_t minute0_of_year) const {
  std::vector<double> per_home(traces_.size(), 0.0);
  for_each_greedy_rollout(
      begin, end,
      [&](std::size_t h, const ems::EmsEnvironment& env,
          const std::vector<int>& actions) {
        per_home[h] += ems::saved_dollars(env, actions, tariff, minute0_of_year);
      });
  return per_home;
}

net::BusStats EmsPipeline::forecast_comm_stats() const {
  return dfl_ ? dfl_->comm_stats() : net::BusStats{};
}

net::BusStats EmsPipeline::drl_comm_stats() const {
  return federation_ ? federation_->comm_stats() : net::BusStats{};
}

obs::MetricsRegistry& EmsPipeline::metrics() const noexcept {
  return cfg_.metrics != nullptr ? *cfg_.metrics
                                 : obs::MetricsRegistry::global();
}

void EmsPipeline::sync_runtime_metrics() const {
  obs::MetricsRegistry& reg = metrics();
  obs::record_bus_stats(reg, "bus.forecast", forecast_comm_stats());
  obs::record_bus_stats(reg, "bus.drl", drl_comm_stats());
  if (dfl_ && dfl_->shard_router() != nullptr) {
    obs::record_shard_router_stats(reg, "bus.forecast",
                                   dfl_->shard_router()->stats());
  }
  if (federation_ && federation_->shard_router() != nullptr) {
    obs::record_shard_router_stats(reg, "bus.drl",
                                   federation_->shard_router()->stats());
  }
  obs::record_thread_pool_stats(reg, "pool",
                                util::ThreadPool::global().stats());
  obs::record_nn_workspace_stats(reg);
  obs::record_nn_kernel_stats(reg);
  obs::record_nn_fused_stats(reg);
  reg.counter("forecast.fused_fallbacks")
      .set(dfl_ ? dfl_->fused_fallbacks() : 0);
}

const rl::DqnAgent& EmsPipeline::agent(std::size_t home,
                                       std::size_t dev) const {
  const auto& slot = agents_.at(home).at(dev);
  if (!slot) {
    throw std::out_of_range("EmsPipeline::agent: protected device has none");
  }
  return *slot;
}

rl::DqnAgent* EmsPipeline::mutable_agent(std::size_t home, std::size_t dev) {
  return agents_.at(home).at(dev).get();
}

}  // namespace pfdrl::core
