#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "data/trace.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::e2e {

namespace {

// --seed draws the load traces, the only input the program receives. The
// neighbourhood (which homes own which devices) is fixed, so every seed
// asks for the same amount of work, and the pipeline keeps its preset's
// own seed (weight init, exploration, fault draws), as a user's run does.
constexpr std::uint64_t kNeighborhoodSeed = 42;
/// Set-up takes only tens of milliseconds and is noisy, so each run times
/// it this many times and reports the median; the run uses the last one.
constexpr int kSetupsPerRun = 3;
constexpr double kMiB = 1024.0 * 1024.0;

const char* preset_name(Preset p) {
  switch (p) {
    case Preset::kPaper: return "paper_pipeline";
    case Preset::kFast: return "fast_pipeline";
    case Preset::kBench: return "bench_pipeline";
  }
  return "?";
}

core::PipelineConfig pipeline_config(const Workload& w,
                                      obs::MetricsRegistry* registry) {
  core::PipelineConfig cfg;
  switch (w.preset) {
    case Preset::kPaper: cfg = sim::paper_pipeline(w.method); break;
    case Preset::kFast: cfg = sim::fast_pipeline(w.method); break;
    case Preset::kBench: cfg = sim::bench_pipeline(w.method); break;
  }
  cfg.beta_hours = w.beta_hours;
  cfg.gamma_hours = w.gamma_hours;
  cfg.shards = w.shards;
  cfg.topology = w.topology;
  cfg.fault.link.drop_probability = w.drop;
  if (!w.crash.empty()) {
    cfg.robustness.failures.crashes.push_back(net::parse_crash(w.crash));
  }
  cfg.robustness.quorum_fraction = w.quorum;
  cfg.metrics = registry;
  return cfg;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

using Counters = std::map<std::string, std::uint64_t>;

/// Marks phase boundaries. Untraced, a boundary is one clock read; traced,
/// it also reads getrusage and folds the runtime stats into the registry
/// to snapshot its counters. That work happens between the end of one
/// phase and the start of the next, so it lands in no phase (and shows
/// up in phase.residual_frac and trace.overhead_frac instead).
class PhaseClock {
 public:
  PhaseClock(bool traced, std::size_t workers, obs::MetricsRegistry& registry)
      : traced_(traced),
        workers_(static_cast<double>(workers)),
        registry_(registry),
        origin_(Clock::now()) {}

  /// Close the open phase (if any) and open `next` (if non-null).
  void boundary(const core::EmsPipeline* pipeline, const char* next,
                std::vector<Phase>& phases) {
    const double now = elapsed();
    const double cpu = traced_ ? cpu_seconds() : 0.0;
    const bool closing = open_;
    if (closing) {
      Phase& p = phases.back();
      p.wall_s = now - p.start_s;
      p.cpu_util = ratio(cpu - cpu_start_, p.wall_s * workers_);
      open_ = false;
    }
    if (traced_) {
      Counters current = snapshot(pipeline);
      if (closing) {
        Json deltas = Json::object();
        for (const auto& [name, value] : current) {
          const auto it = counters_.find(name);
          const std::uint64_t before = it == counters_.end() ? 0 : it->second;
          if (value != before) {
            deltas[name] = static_cast<double>(value) -
                           static_cast<double>(before);
          }
        }
        phases.back().counters = std::move(deltas);
      }
      counters_ = std::move(current);
    }
    if (next != nullptr) {
      phases.push_back(Phase{next, 0.0, 0.0, 0.0, Json::object()});
      cpu_start_ = traced_ ? cpu_seconds() : 0.0;
      phases.back().start_s = elapsed();
      open_ = true;
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Counters snapshot(const core::EmsPipeline* pipeline) {
    if (pipeline != nullptr) {
      pipeline->sync_runtime_metrics();
    } else {
      obs::record_thread_pool_stats(registry_, "pool",
                                    util::ThreadPool::global().stats());
      obs::record_nn_workspace_stats(registry_);
      obs::record_nn_kernel_stats(registry_);
      obs::record_nn_fused_stats(registry_);
    }
    return registry_.capture_state().counters;
  }

  bool traced_;
  double workers_;
  obs::MetricsRegistry& registry_;
  Clock::time_point origin_;
  bool open_ = false;
  double cpu_start_ = 0.0;
  Counters counters_;
};

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t part) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((part >> (8 * i)) & 0xffU)) * 1099511628211ULL;
  }
  return h;
}

std::uint64_t param_hash(const core::EmsPipeline& pipeline) {
  std::uint64_t h = 1469598103934665603ULL;
  const fl::DflTrainer* dfl = pipeline.dfl_trainer();
  for (std::size_t home = 0; home < pipeline.num_homes(); ++home) {
    for (std::size_t dev = 0; dev < pipeline.num_devices(home); ++dev) {
      if (dfl != nullptr) {
        h = fnv_fold(h, bench::fnv1a_params(
                            dfl->forecaster(home, dev).parameters()));
      }
      if (const rl::DqnAgent* agent = pipeline.agent_ptr(home, dev)) {
        h = fnv_fold(h, bench::fnv1a_params(agent->network().parameters()));
      }
    }
  }
  return h;
}

/// Median and the highest percentile with at least ten samples beyond
/// it (1 - 10/n, never below the median); the maximum when n <= 10.
void add_round_timing(Json& layer, const std::string& name,
                      const std::vector<double>& rounds) {
  const double n = static_cast<double>(rounds.size());
  layer[name + ".p50"] = util::percentile(rounds, 0.5);
  const double q = n > 10.0 ? std::max(0.5, 1.0 - 10.0 / n) : 1.0;
  layer[name + ".phi"] = util::percentile(rounds, q);
}

/// Wall time from the start of phases[first] to the end of phases[last].
double spanned(const std::vector<Phase>& phases, std::size_t first,
               std::size_t last) {
  return phases[last].start_s + phases[last].wall_s - phases[first].start_s;
}

/// Per-layer metrics of one traced run (see README.md for the catalogue).
Json layer_metrics(const RunResult& r, const core::EmsPipeline& pipeline,
                   obs::MetricsRegistry& registry) {
  const auto phase = [&](const char* name) -> const Phase& {
    for (const Phase& p : r.phases) {
      if (p.name == name) return p;
    }
    throw std::logic_error(std::string("missing phase ") + name);
  };
  const auto delta = [](const Phase& p, const char* counter) {
    const Json* v = p.counters.find(counter);
    return v != nullptr ? v->as_number() : 0.0;
  };
  const auto run_delta = [&](const char* counter) {
    double sum = 0.0;
    for (const char* name : {"train_forecasters", "train_ems", "evaluate",
                             "forecast_accuracy"}) {
      sum += delta(phase(name), counter);
    }
    return sum;
  };
  const obs::MetricsSnapshot state = registry.capture_state();
  const auto counter = [&](const char* name) {
    const auto it = state.counters.find(name);
    return it == state.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto gauge = [&](const char* name, double absent) {
    const auto it = state.gauges.find(name);
    return it == state.gauges.end() ? absent : it->second;
  };

  const Phase& fc = phase("train_forecasters");
  const Phase& ems = phase("train_ems");
  const Phase& eval = phase("evaluate");
  Json m = Json::object();
  m["data.generate_s"] = phase("generate").wall_s;
  m["core.construct_s"] = phase("construct").wall_s;

  m["forecast.phase_s"] = fc.wall_s;
  m["forecast.cpu_util"] = fc.cpu_util;
  const double windows = delta(fc, "dfl.train_windows");
  m["forecast.train_windows"] = windows;
  m["forecast.windows_per_s"] = ratio(windows, fc.wall_s);
  add_round_timing(m, "forecast.round_s",
                   registry.series("dfl.round_seconds_series").values());
  m["nn.kernel_train_batches"] = run_delta("nn.kernel_train_batches");
  m["nn.fused_batches"] = run_delta("nn.fused_batches");

  m["forecast.accuracy_s"] = phase("forecast_accuracy").wall_s;
  m["ems.eval_s"] = eval.wall_s;
  m["ems.eval_cpu_util"] = eval.cpu_util;
  m["ems.net_savings_frac"] = r.net_savings_frac;
  const double hits = run_delta("episode.forecast_cache_hits");
  m["episode.cache_hit_frac"] =
      ratio(hits, hits + run_delta("episode.forecast_cache_misses"));

  m["ems.phase_s"] = ems.wall_s;
  m["ems.cpu_util"] = ems.cpu_util;
  const double decisions = delta(ems, "ems.env_steps");
  const double learns = delta(ems, "ems.learn_calls");
  m["ems.decisions"] = decisions;
  m["ems.decisions_per_s"] = ratio(decisions, ems.wall_s);
  m["rl.learn_calls"] = learns;
  m["rl.learns_per_s"] = ratio(learns, ems.wall_s);
  m["nn.workspace_allocs"] = delta(ems, "nn.workspace_allocs");

  add_round_timing(m, "core.ems_round_s",
                   registry.series("ems.round_seconds_series").values());
  // The BSP engine never records a depth: one round in flight.
  m["core.pipeline_depth"] = gauge("ems.pipeline.depth", 1.0);
  m["pool.tasks_executed"] = run_delta("pool.tasks_executed");
  m["pool.tasks_stolen"] = run_delta("pool.tasks_stolen");
  m["pool.max_queue_depth"] = gauge("pool.max_queue_depth", 0.0);

  const net::BusStats fbus = pipeline.forecast_comm_stats();
  const net::BusStats dbus = pipeline.drl_comm_stats();
  const auto mib = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / kMiB;
  };
  m["net.forecast_msgs"] = static_cast<double>(fbus.messages_sent);
  m["net.drl_msgs"] = static_cast<double>(dbus.messages_sent);
  m["net.forecast_dropped"] = static_cast<double>(fbus.messages_dropped);
  m["net.drl_dropped"] = static_cast<double>(dbus.messages_dropped);
  m["net.forecast_logical_mib"] = mib(fbus.logical_bytes);
  m["net.drl_logical_mib"] = mib(dbus.logical_bytes);
  m["net.forecast_wire_mib"] = mib(fbus.bytes_on_wire);
  m["net.drl_wire_mib"] = mib(dbus.bytes_on_wire);
  m["net.shard_batches"] =
      counter("bus.forecast.shard_batches") + counter("bus.drl.shard_batches");
  m["net.shard_batched_msgs"] = counter("bus.forecast.shard_batched_msgs") +
                                counter("bus.drl.shard_batched_msgs");
  m["fl.forecast_contributions"] = counter("dfl.contributions_accepted");
  m["drl.params_averaged"] = counter("drl.params_averaged");
  const double items = counter("exchange.items");
  m["exchange.items"] = items;
  m["exchange.payload_copies"] = counter("exchange.payload_copies");
  m["exchange.relays"] = counter("exchange.relays");
  m["exchange.retries"] = counter("exchange.retries");
  // Without a codec attached nothing is encoded and wire == logical.
  m["wire.encode_s"] = counter("wire.encode_ns") * 1e-9;
  m["wire.ratio"] =
      ratio(mib(fbus.logical_bytes + dbus.logical_bytes),
            mib(fbus.bytes_on_wire + dbus.bytes_on_wire));

  m["exchange.stale_frac"] = ratio(counter("exchange.stale_rounds"), items);
  m["fault.drops"] = counter("fault.drops");

  double phase_sum = 0.0;
  for (const Phase& p : r.phases) phase_sum += p.wall_s;
  m["phase.residual_frac"] =
      1.0 - ratio(phase_sum, spanned(r.phases, 0, 1) + r.run_s);
  return m;
}

}  // namespace

Workload Workload::at(Scale scale) const {
  if (scale == Scale::kFull) return *this;
  Workload w = *this;
  w.homes = std::min<std::uint32_t>(homes, 4);
  w.days = 4;
  w.shards = std::min<std::size_t>(shards, 2);
  return w;
}

Json Workload::args() const {
  Json a = Json::object();
  a["preset"] = preset_name(preset);
  a["method"] = core::ems_method_name(method);
  a["homes"] = static_cast<double>(homes);
  a["days"] = days;
  a["shards"] = shards;
  a["beta_hours"] = beta_hours;
  a["gamma_hours"] = gamma_hours;
  a["topology"] = topology ? net::topology_name(*topology) : "method default";
  a["drop"] = drop;
  a["crash"] = crash;
  a["quorum"] = quorum;
  a["neighborhood_seed"] = static_cast<double>(kNeighborhoodSeed);
  return a;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    Workload paper;
    paper.name = "paper_pfdrl";
    paper.preset = Preset::kPaper;
    paper.homes = 8;
    paper.days = 4;
    paper.shards = 4;
    v.push_back(paper);

    Workload city;
    city.name = "city_ems";
    city.preset = Preset::kFast;
    city.homes = 64;
    city.days = 4;
    city.shards = 8;
    city.topology = net::TopologyKind::kHierarchical;
    v.push_back(city);

    Workload mesh;
    mesh.name = "mesh_exchange";
    mesh.preset = Preset::kFast;
    mesh.homes = 56;
    mesh.days = 4;
    mesh.shards = 8;
    mesh.beta_hours = 1.0;
    mesh.gamma_hours = 1.0;
    mesh.topology = net::TopologyKind::kFullMesh;
    v.push_back(mesh);

    Workload frl;
    frl.name = "frl_star_lossy";
    frl.preset = Preset::kBench;
    frl.method = core::EmsMethod::kFrl;
    frl.homes = 24;
    frl.days = 4;
    frl.shards = 4;
    frl.gamma_hours = 6.0;
    frl.topology = net::TopologyKind::kStar;
    frl.drop = 0.05;
    frl.crash = "3:1:3";
    frl.quorum = 0.5;
    v.push_back(frl);
    return v;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunResult run_workload(const Workload& w, std::uint64_t seed, bool traced,
                       std::size_t pool_workers) {
  RunResult r;
  obs::MetricsRegistry registry;
  PhaseClock clock(traced, pool_workers, registry);
  const std::size_t day = data::kMinutesPerDay;
  try {
    sim::ScenarioConfig sc;
    sc.neighborhood.num_households = w.homes;
    sc.neighborhood.seed = kNeighborhoodSeed;
    sc.trace.days = w.days;
    sc.trace.seed = seed;
    const core::PipelineConfig cfg = pipeline_config(w, &registry);

    std::vector<double> setups;
    for (int i = 1; i < kSetupsPerRun; ++i) {
      const util::Stopwatch watch;
      const sim::Scenario discarded = sim::Scenario::generate(sc);
      const core::EmsPipeline unused(discarded.traces, cfg);
      setups.push_back(watch.elapsed_seconds());
    }
    clock.boundary(nullptr, "generate", r.phases);
    const sim::Scenario scenario = sim::Scenario::generate(sc);
    clock.boundary(nullptr, "construct", r.phases);
    core::EmsPipeline pipeline(scenario.traces, cfg);
    clock.boundary(&pipeline, "train_forecasters", r.phases);
    pipeline.train_forecasters(0, 2 * day);
    clock.boundary(&pipeline, "train_ems", r.phases);
    pipeline.train_ems(2 * day, (w.days - 1) * day);
    clock.boundary(&pipeline, "evaluate", r.phases);
    const auto results = pipeline.evaluate((w.days - 1) * day, w.days * day);
    clock.boundary(&pipeline, "forecast_accuracy", r.phases);
    r.forecast_accuracy =
        pipeline.forecast_accuracy((w.days - 1) * day, w.days * day);
    clock.boundary(&pipeline, nullptr, r.phases);

    setups.push_back(spanned(r.phases, 0, 1));
    r.setup_s = util::percentile(setups, 0.5);
    r.run_s = spanned(r.phases, 2, 5);

    // pfdrl_cli's savings formula: sum of per-home net savings (a home
    // that wasted energy counts as zero) over the available standby.
    double net = 0.0;
    double standby = 0.0;
    for (const ems::EpisodeResult& home : results) {
      net += std::max(0.0, home.net_saved_kwh());
      standby += home.standby_kwh;
    }
    r.net_savings_frac = ratio(net, standby);
    const net::BusStats fbus = pipeline.forecast_comm_stats();
    const net::BusStats dbus = pipeline.drl_comm_stats();
    r.comm_mib =
        static_cast<double>(fbus.bytes_on_wire + dbus.bytes_on_wire) / kMiB;
    r.param_hash = param_hash(pipeline);
    if (traced) r.layer = layer_metrics(r, pipeline, registry);

    for (const double v : {r.setup_s, r.run_s, r.forecast_accuracy,
                           r.net_savings_frac, r.comm_mib}) {
      if (!std::isfinite(v)) {
        r.error = "non-finite metric";
        return r;
      }
    }
    if (r.forecast_accuracy < 0.0 || r.forecast_accuracy > 1.0 ||
        r.net_savings_frac < 0.0 || r.net_savings_frac > 1.0 ||
        r.comm_mib <= 0.0) {
      r.error = "metric out of range";
      return r;
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

}  // namespace pfdrl::e2e
