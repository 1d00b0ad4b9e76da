// Command-line driver: run any of the five EMS methods on a configurable
// synthetic neighbourhood and print the results — the "try the system on
// your parameters" entry point.
//
//   $ ./examples/pfdrl_cli --method pfdrl --homes 8 --days 6 --alpha 6
//       --beta 12 --gamma 12 --seed 7 [--paper-scale] [--secure]
//   (one command line, wrapped here)
//
// Flags (all optional):
//   --method  local | cloud | fl | frl | pfdrl      (default pfdrl)
//   --homes N           residences                   (default 5)
//   --days N            trace days; needs >= 4       (default 5)
//   --alpha N           shared DQN layers            (default 6)
//   --beta H            forecast broadcast period    (default 12)
//   --gamma H           DRL broadcast period         (default 12)
//   --seed N            scenario + pipeline seed     (default 42)
//   --paper-scale       full 8x100 DQN + LSTM forecasters
//   --secure            pairwise-masked (secure) DFL aggregation
//   --drop P            link drop probability in [0,1) (default 0)
//   --fault-plan SPEC   comma-separated fault spec, e.g.
//                       drop=0.2,delay=0.01,jitter=0.005,dup=0.02
//                       (keys: drop delay jitter dup bw latency seed)
//   --deadline S        per-round exchange deadline, simulated seconds
//   --quorum F          quorum fraction of the nominal group in (0,1]
//   --crash A:FROM:TO   crash agent A for federation rounds [FROM,TO)
//                       (repeatable)
//   --straggler A:S     agent A starts every round S simulated seconds
//                       late (repeatable)
//   --partition F:T:a,b partition agents {a,b,...} from the rest for
//                       rounds [F,T) (repeatable)
//   --metrics-out PATH  write a JSON metrics dump of the whole run
//                       (.csv suffix switches to the CSV exporter)
//   --snapshot-every N  save a crash-safe run snapshot every N EMS rounds
//                       (see docs/persistence.md); with --crash windows,
//                       crashed homes warm-restart from the last snapshot
//   --snapshot-out PATH snapshot file (default pfdrl_snapshot.pfrc)
//   --resume PATH       restore a snapshot and continue training from its
//                       recorded cursor (must match method/homes/seed);
//                       accepts whole-run files or a per-shard base path
//   --shards N          home shards of the round engine (docs/scaling.md):
//                       each shard trains as one fused group
//                       (docs/fused_training.md) and publishes and applies
//                       its rounds on its own readiness; 0/1 = one shard.
//                       Results are identical at any shard count. Also
//                       shards the snapshot files (one per shard)
//   --pool-workers N    global thread-pool size override (equivalent to
//                       setting PFDRL_POOL_WORKERS before launch)
//   --topology NAME     federation topology override: full_mesh | star |
//                       ring | hierarchical | gossip (default: method's)
//   --cluster-size N    hierarchical topology cluster size  (default 8)
//   --fanout N          gossip topology out-degree           (default 4)
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/pipeline.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "sim/snapshot.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pfdrl;

std::optional<core::EmsMethod> parse_method(const std::string& name) {
  if (name == "local") return core::EmsMethod::kLocal;
  if (name == "cloud") return core::EmsMethod::kCloud;
  if (name == "fl") return core::EmsMethod::kFl;
  if (name == "frl") return core::EmsMethod::kFrl;
  if (name == "pfdrl") return core::EmsMethod::kPfdrl;
  return std::nullopt;
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr, "pfdrl_cli: %s\nsee the header comment for flags\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  core::EmsMethod method = core::EmsMethod::kPfdrl;
  std::uint32_t homes = 5;
  std::size_t days = 5;
  std::size_t alpha = 6;
  double beta = 12.0;
  double gamma = 12.0;
  std::uint64_t seed = 42;
  bool paper_scale = false;
  bool secure = false;
  double drop = 0.0;
  net::FaultPlan fault;
  fl::ExchangePolicy robustness;
  std::string metrics_out;
  std::uint64_t snapshot_every = 0;
  std::string snapshot_out = "pfdrl_snapshot.pfrc";
  std::string resume_path;
  std::size_t shards = 0;
  std::optional<net::TopologyKind> topology;
  net::TopologyOptions topo_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--method") {
      const auto m = parse_method(next());
      if (!m) usage_error("unknown method");
      method = *m;
    } else if (arg == "--homes") {
      homes = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--days") {
      days = std::stoul(next());
    } else if (arg == "--alpha") {
      alpha = std::stoul(next());
    } else if (arg == "--beta") {
      beta = std::stod(next());
    } else if (arg == "--gamma") {
      gamma = std::stod(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--paper-scale") {
      paper_scale = true;
    } else if (arg == "--secure") {
      secure = true;
    } else if (arg == "--drop") {
      drop = std::stod(next());
    } else if (arg == "--fault-plan") {
      try {
        fault = net::parse_fault_plan(next());
      } catch (const std::invalid_argument& e) {
        usage_error(e.what());
      }
    } else if (arg == "--deadline") {
      robustness.round_deadline_s = std::stod(next());
    } else if (arg == "--quorum") {
      robustness.quorum_fraction = std::stod(next());
    } else if (arg == "--crash") {
      try {
        robustness.failures.crashes.push_back(net::parse_crash(next()));
      } catch (const std::invalid_argument& e) {
        usage_error(e.what());
      }
    } else if (arg == "--straggler") {
      try {
        robustness.failures.stragglers.push_back(net::parse_straggler(next()));
      } catch (const std::invalid_argument& e) {
        usage_error(e.what());
      }
    } else if (arg == "--partition") {
      try {
        fault.partitions.push_back(net::parse_partition(next()));
      } catch (const std::invalid_argument& e) {
        usage_error(e.what());
      }
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--snapshot-every") {
      snapshot_every = std::stoull(next());
    } else if (arg == "--snapshot-out") {
      snapshot_out = next();
    } else if (arg == "--resume") {
      resume_path = next();
    } else if (arg == "--shards") {
      shards = std::stoul(next());
    } else if (arg == "--pool-workers") {
      const std::size_t workers = std::stoul(next());
      if (workers == 0) usage_error("--pool-workers must be >= 1");
      util::ThreadPool::set_global_workers(workers);
    } else if (arg == "--topology") {
      const auto kind = net::parse_topology_kind(next());
      if (!kind) usage_error("unknown topology");
      topology = *kind;
    } else if (arg == "--cluster-size") {
      topo_opts.cluster_size = std::stoul(next());
    } else if (arg == "--fanout") {
      topo_opts.fanout = std::stoul(next());
    } else {
      usage_error(("unknown flag " + arg).c_str());
    }
  }
  if (days < 4) usage_error("--days must be at least 4");
  if (homes < 1) usage_error("--homes must be at least 1");
  if (drop < 0.0 || drop >= 1.0) usage_error("--drop must be in [0,1)");
  if (drop > 0.0) fault.link.drop_probability = drop;
  if (robustness.quorum_fraction < 0.0 || robustness.quorum_fraction > 1.0) {
    usage_error("--quorum must be in [0,1]");
  }
  if (secure && (!fault.reliable() || robustness.degraded())) {
    usage_error(
        "--secure needs a reliable fault-free plan (no --drop, --fault-plan "
        "faults, --deadline, --quorum, --crash, --straggler or --partition)");
  }

  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = homes;
  sc.neighborhood.seed = seed;
  sc.trace.days = days;
  sc.trace.seed = seed;
  const auto scenario = sim::Scenario::generate(sc);

  auto cfg = paper_scale ? sim::paper_pipeline(method, seed)
                         : sim::bench_pipeline(method, seed);
  cfg.alpha = alpha;
  cfg.beta_hours = beta;
  cfg.gamma_hours = gamma;
  cfg.secure_aggregation = secure;
  cfg.fault = fault;
  cfg.robustness = robustness;
  cfg.shards = shards;
  cfg.topology = topology;
  cfg.topology_options = topo_opts;

  const sim::ShardPlan plan = sim::ShardPlan::make(homes, shards);
  std::printf(
      "method=%s homes=%u days=%zu alpha=%zu beta=%.1fh gamma=%.1fh "
      "seed=%llu%s%s%s\n",
      core::ems_method_name(method), homes, days, alpha, beta, gamma,
      static_cast<unsigned long long>(seed),
      paper_scale ? " [paper-scale]" : "", secure ? " [secure-agg]" : "",
      topology ? (std::string(" topology=") + net::topology_name(*topology))
                     .c_str()
               : "");
  if (plan.sharded()) {
    std::printf("shards: %s (sync pipeline)\n", plan.describe().c_str());
  }
  std::printf("\n");

  core::EmsPipeline pipeline(scenario.traces, cfg);
  const std::size_t day = data::kMinutesPerDay;
  const std::size_t fc_days = 2;
  const std::size_t eval_begin = (days - 1) * day;

  std::size_t ems_begin = fc_days * day;
  if (!resume_path.empty()) {
    // Snapshots are taken at EMS-round boundaries, after forecaster
    // training: restoring replaces both training phases up to the
    // recorded cursor, so only the remaining EMS rounds run.
    try {
      sim::RunSnapshot snap;
      try {
        snap = sim::load_snapshot(resume_path);
      } catch (const std::exception&) {
        // No whole-run file at this path — try it as the base path of a
        // per-shard snapshot set (--shards runs write one file per shard).
        snap = sim::load_sharded_snapshot(resume_path);
      }
      sim::restore_run(pipeline, snap);
      ems_begin = std::max<std::size_t>(
          ems_begin, static_cast<std::size_t>(snap.train_cursor_minutes));
      std::printf("resumed from %s (ems round %llu, minute %llu)\n\n",
                  resume_path.c_str(),
                  static_cast<unsigned long long>(snap.ems_rounds_done),
                  static_cast<unsigned long long>(snap.train_cursor_minutes));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pfdrl_cli: --resume failed: %s\n", e.what());
      return 1;
    }
  } else {
    pipeline.train_forecasters(0, fc_days * day);
  }

  std::optional<sim::SnapshotManager> snapshots;
  if (snapshot_every > 0) {
    sim::SnapshotManager::Options so;
    so.path = snapshot_out;
    so.every_rounds = snapshot_every;
    so.train_begin_minute = ems_begin;
    so.train_end_minute = eval_begin;
    so.shards = shards;
    snapshots.emplace(pipeline, so);
  }
  if (ems_begin < eval_begin) pipeline.train_ems(ems_begin, eval_begin);
  if (snapshots && snapshots->saves() > 0) {
    std::printf("snapshots: %llu saved to %s (%llu warm restart%s)\n",
                static_cast<unsigned long long>(snapshots->saves()),
                snapshot_out.c_str(),
                static_cast<unsigned long long>(snapshots->home_restarts()),
                snapshots->home_restarts() == 1 ? "" : "s");
  }

  const auto results = pipeline.evaluate(eval_begin, days * day);
  util::TextTable table({"home", "standby kWh", "net saved kWh", "net %",
                         "violations", "reward/step"});
  double net = 0.0, standby = 0.0;
  for (std::size_t h = 0; h < results.size(); ++h) {
    const auto& r = results[h];
    net += std::max(0.0, r.net_saved_kwh());
    standby += r.standby_kwh;
    table.add_row({"home" + std::to_string(h),
                   util::fmt_double(r.standby_kwh, 3),
                   util::fmt_double(r.net_saved_kwh(), 3),
                   util::fmt_percent(r.net_saved_fraction()),
                   std::to_string(r.comfort_violations),
                   util::fmt_double(
                       r.total_reward / static_cast<double>(r.steps), 2)});
  }
  table.print("evaluation day results:");
  std::printf(
      "\nforecast accuracy %.1f%%; net standby savings %.1f%% of %.2f kWh\n",
      pipeline.forecast_accuracy(eval_begin, days * day) * 100.0,
      standby > 0 ? net / standby * 100.0 : 0.0, standby);

  const auto fc = pipeline.forecast_comm_stats();
  const auto drl = pipeline.drl_comm_stats();
  std::printf("traffic: forecast %.1f MiB, DRL %.1f MiB\n",
              static_cast<double>(fc.bytes_on_wire) / (1024.0 * 1024.0),
              static_cast<double>(drl.bytes_on_wire) / (1024.0 * 1024.0));

  if (!metrics_out.empty()) {
    pipeline.sync_runtime_metrics();
    const auto& reg = pipeline.metrics();
    try {
      if (metrics_out.size() > 4 &&
          metrics_out.compare(metrics_out.size() - 4, 4, ".csv") == 0) {
        reg.write_csv(metrics_out);
      } else {
        reg.write_json(metrics_out);
      }
    } catch (const std::exception& e) {
      // The run itself succeeded — report the export failure cleanly
      // instead of aborting and losing the printed results.
      std::fprintf(stderr, "pfdrl_cli: %s\n", e.what());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}
