// City-scale federation engine sweep — the perf baseline for the round
// engine (docs/scaling.md).
//
// The full EMS pipeline cannot run 100k homes on a laptop (the DQN +
// forecaster state alone would swamp RAM), but the *engine* — sharded
// local steps, topology broadcast, cross-shard batch routing, per-shard
// drain/aggregate — can, and that is what this bench measures. Each
// point spins up N synthetic agents with P-double parameter slices and
// runs R federation rounds on the round engine: fl::StagedExchange
// double buffers driven by fl::RoundPipeline readiness counters, so
// per-shard compute overlaps neighbor exchange (stall/overlap seconds
// are reported from fl::PipelineStats).
//
// Homes are cost-weighted (device count ramps 1..4 across the city) on
// the uniform equal-count shard plan; `cost_imbalance` reports the
// per-shard weight skew that ramp produces.
//
// The pool-worker sweep re-executes this binary once per requested
// worker count with PFDRL_POOL_WORKERS set (the pool is sized once per
// process), collecting each child's point lines into one JSON. Twin
// identically seeded runs per point must agree bitwise
// (`deterministic`), and the final parameter hash must be identical
// across every pool_workers count per agent count (`hash_consistent`) —
// the engine determinism contract.
//
// Writes a JSON summary (default BENCH_scale.json in the CWD; the
// committed baseline at the repo root is produced by the default flags).
// Flags: --agents CSV, --rounds R, --params P, --shards S,
// --pool-workers CSV, --topology NAME, --fanout N, --out PATH (and
// --emit PATH, the internal child mode).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "fl/exchange.hpp"
#include "fl/round_pipeline.hpp"
#include "net/bus.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "util/shard.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pfdrl;

struct SweepConfig {
  std::size_t params = 64;
  std::size_t rounds = 6;
  std::size_t shards = 32;  // fixed (not pool-sized) so the topology —
                            // and hence the hash — is worker-invariant
  net::TopologyKind topology = net::TopologyKind::kHierarchical;
  std::size_t fanout = 4;
  std::uint64_t seed = 42;
};

struct PointResult {
  std::size_t agents = 0;
  std::size_t shards = 0;
  double seconds = 0.0;
  double agent_rounds_per_sec = 0.0;
  std::uint64_t links_per_round = 0;
  /// max/mean of measured per-shard local-step seconds.
  double imbalance = 1.0;
  /// max/mean of per-shard device weight under the plan (deterministic).
  double cost_imbalance = 1.0;
  fl::PipelineStats pipeline;
  net::ShardRouterStats router;
  std::uint64_t logical_bytes = 0;  ///< bus bytes: header + raw payload
  std::uint64_t hash = 0;
  bool deterministic = false;
};

/// Synthetic per-home device counts: a deterministic 1..4 ramp across
/// the city — the heterogeneity pattern that skews an equal-count shard
/// plan hardest (all heavy homes land in the top shards).
std::vector<std::size_t> home_weights(std::size_t agents) {
  std::vector<std::size_t> weights(agents);
  for (std::size_t a = 0; a < agents; ++a) weights[a] = 1 + (3 * a) / agents;
  return weights;
}

/// Everything one engine run needs, bundled so twin runs construct
/// byte-identical inputs.
struct EngineSetup {
  sim::ShardPlan plan;
  std::vector<std::size_t> weights;
  net::MessageBus bus;
  std::unique_ptr<net::ShardRouter> router;  // router owns mutexes: no move
  std::vector<double> params;
  std::vector<fl::ExchangeItem> items;

  EngineSetup(std::size_t agents, const SweepConfig& cfg,
              sim::ShardPlan plan_in, std::vector<std::size_t> weights_in)
      : plan(std::move(plan_in)),
        weights(std::move(weights_in)),
        bus(net::Topology(cfg.topology, agents,
                          net::TopologyOptions{
                              .cluster_size = plan.aligned_cluster_size(),
                              .fanout = cfg.fanout,
                              .gossip_seed = cfg.seed}),
            {}),
        router(std::make_unique<net::ShardRouter>(agents, plan.shards)),
        params(agents * cfg.params),
        items(agents) {
    if (plan.sharded()) bus.set_shard_router(router.get());
    // Flat N x P parameter arena; agent a owns [a*P, (a+1)*P).
    const std::size_t P = cfg.params;
    for (std::size_t a = 0; a < agents; ++a) {
      for (std::size_t i = 0; i < P; ++i) {
        params[a * P + i] =
            static_cast<double>(net::detail::mix64(cfg.seed ^ (a * P + i)) >>
                                40) *
            1e-6;
      }
    }
    for (std::size_t a = 0; a < agents; ++a) {
      const std::span<double> slice(params.data() + a * P, P);
      items[a] = {.agent = static_cast<net::AgentId>(a),
                  .device_type = 0,
                  .send = slice,
                  .in_place = slice};
    }
  }

  /// Local step for agent `a` at round `r`: a pure per-agent function of
  /// (seed, round, agent), repeated once per device the home owns so
  /// step cost is proportional to the home's weight. Schedule-independent
  /// by construction, like the engine's forked per-job RNGs.
  void local_step(const SweepConfig& cfg, std::size_t a, std::size_t r) {
    const std::size_t P = cfg.params;
    for (std::size_t dev = 0; dev < weights[a]; ++dev) {
      for (std::size_t i = 0; i < P; ++i) {
        const std::uint64_t g =
            net::detail::mix64(cfg.seed ^ (r * 1315423911ULL) ^
                               (dev * 2654435761ULL) ^ (a * P + i));
        params[a * P + i] =
            params[a * P + i] * 0.999 + static_cast<double>(g >> 40) * 1e-9;
      }
    }
  }

  void fill_common(const SweepConfig& cfg, double seconds, PointResult* out) {
    out->agents = plan.num_homes;
    out->shards = plan.shards;
    out->seconds = seconds;
    out->agent_rounds_per_sec =
        seconds > 0.0
            ? static_cast<double>(plan.num_homes * cfg.rounds) / seconds
            : 0.0;
    std::uint64_t links = 0;
    for (std::size_t a = 0; a < plan.num_homes; ++a) {
      links += bus.topology().broadcast_links(static_cast<net::AgentId>(a));
    }
    out->links_per_round = links;
    // max/mean of per-shard total device weight under the plan.
    double total = 0.0;
    double heaviest = 0.0;
    for (std::size_t s = 0; s < plan.shards; ++s) {
      const auto [first, last] = plan.shard_range(s);
      double sum = 0.0;
      for (std::size_t a = first; a < last; ++a) sum += weights[a];
      total += sum;
      heaviest = std::max(heaviest, sum);
    }
    out->cost_imbalance =
        total > 0.0 ? heaviest * static_cast<double>(plan.shards) / total
                    : 1.0;
    out->router = router->stats();
    out->logical_bytes = bus.stats().logical_bytes;
  }
};

/// The round engine: StagedExchange double buffers under RoundPipeline
/// readiness counters — no per-phase barriers, shard compute overlapping
/// neighbor exchange.
std::uint64_t run_engine(std::size_t agents, const SweepConfig& cfg,
                         PointResult* out) {
  EngineSetup setup(agents, cfg, sim::ShardPlan::make(agents, cfg.shards),
                    home_weights(agents));
  const std::size_t shards = setup.plan.shards;

  fl::ParamExchange::Options opts;
  opts.kind = net::MessageKind::kForecastParams;
  opts.min_group = 2;
  fl::StagedExchange staged(setup.bus, opts, setup.items);
  if (staged.num_shards() != shards) {
    std::fprintf(stderr, "FATAL: staged exchange shard count mismatch\n");
    std::exit(1);
  }

  fl::RoundPipeline pipe(fl::shard_broadcast_graph(
      setup.bus.topology(), setup.plan.sharded() ? setup.router.get() : nullptr));

  // Per-shard compute seconds: compute(s, ·) is serialized per shard by
  // the scheduler, so each slot has a single writer.
  std::vector<double> shard_seconds(shards, 0.0);
  fl::RoundPipeline::Ops ops;
  ops.compute = [&](std::size_t s, std::uint64_t r) {
    util::Stopwatch w;
    const auto [first, last] = setup.plan.shard_range(s);
    const auto step = [&](std::size_t a) {
      setup.local_step(cfg, a, static_cast<std::size_t>(r));
    };
    if (shards == 1) {
      util::ThreadPool::global().parallel_for(first, last, step);
    } else {
      for (std::size_t a = first; a < last; ++a) step(a);
    }
    shard_seconds[s] += w.elapsed_seconds();
  };
  ops.publish = [&](std::size_t s, std::uint64_t r) {
    staged.publish_shard(s, r);
  };
  if (staged.has_hub()) {
    ops.hub = [&](std::uint64_t r) { staged.hub_step(r); };
  }
  ops.apply = [&](std::size_t s, std::uint64_t r) {
    staged.apply_shard(s, r, [](std::size_t, std::span<const double>) {});
  };

  util::Stopwatch watch;
  pipe.run(util::ThreadPool::global(), 0, cfg.rounds, ops);
  const double seconds = watch.elapsed_seconds();

  if (out != nullptr) {
    setup.fill_common(cfg, seconds, out);
    out->pipeline = pipe.stats();
    util::ShardTiming timing{shard_seconds};
    out->imbalance = shards > 1 ? timing.max_over_mean() : 1.0;
  }
  return bench::fnv1a_params(setup.params);
}

PointResult run_point(std::size_t agents, const SweepConfig& cfg) {
  PointResult result;
  const std::uint64_t first = run_engine(agents, cfg, &result);
  const std::uint64_t twin = run_engine(agents, cfg, nullptr);
  result.hash = first;
  result.deterministic = first == twin;
  return result;
}

void print_point_json(std::FILE* f, const PointResult& p, bool last) {
  std::fprintf(
      f,
      "    {\"agents\": %zu, \"shards\": %zu, "
      "\"pool_workers\": %zu, "
      "\"seconds\": %.6f, \"agent_rounds_per_sec\": %.1f, "
      "\"links_per_round\": %" PRIu64 ", "
      "\"batched_msgs\": %" PRIu64 ", "
      "\"batched_bytes\": %" PRIu64 ", "
      "\"batched_wire_bytes\": %" PRIu64 ", "
      "\"batches\": %" PRIu64 ", "
      "\"max_batch_depth\": %" PRIu64 ", "
      "\"logical_bytes\": %" PRIu64 ", "
      "\"imbalance\": %.3f, "
      "\"cost_imbalance\": %.3f, "
      "\"max_rounds_in_flight\": %" PRIu64 ", "
      "\"stall_seconds\": %.6f, "
      "\"overlap_seconds\": %.6f, "
      "\"deterministic\": %s, "
      "\"param_hash\": \"%016" PRIx64 "\"}%s\n",
      p.agents, p.shards, util::ThreadPool::global().size(), p.seconds, p.agent_rounds_per_sec,
      p.links_per_round, p.router.messages_batched, p.router.batched_bytes,
      p.router.batched_wire_bytes, p.router.batches_flushed,
      p.router.max_batch_depth, p.logical_bytes, p.imbalance,
      p.cost_imbalance,
      p.pipeline.max_rounds_in_flight, p.pipeline.stall_seconds,
      p.pipeline.overlap_seconds, p.deterministic ? "true" : "false",
      p.hash, last ? "" : ",");
}

std::vector<std::size_t> parse_csv_sizes(const char* s) {
  std::vector<std::size_t> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(std::stoul(cur));
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

/// Fields the parent needs back out of a child's point line.
struct ParsedPoint {
  std::size_t agents = 0;
  std::size_t pool_workers = 0;
  double rate = 0.0;
  double stall = 0.0;
  double overlap = 0.0;
  std::string hash;
  bool deterministic = false;
};

bool parse_point_line(const std::string& line, ParsedPoint* out) {
  const auto find_num = [&](const char* key, double* value) {
    const char* at = std::strstr(line.c_str(), key);
    return at != nullptr && std::sscanf(at + std::strlen(key), "%lf", value) == 1;
  };
  double agents = 0.0;
  double workers = 0.0;
  if (!find_num("\"agents\": ", &agents) ||
      !find_num("\"pool_workers\": ", &workers) ||
      !find_num("\"agent_rounds_per_sec\": ", &out->rate) ||
      !find_num("\"stall_seconds\": ", &out->stall) ||
      !find_num("\"overlap_seconds\": ", &out->overlap)) {
    return false;
  }
  out->agents = static_cast<std::size_t>(agents);
  out->pool_workers = static_cast<std::size_t>(workers);
  const char* hash = std::strstr(line.c_str(), "\"param_hash\": \"");
  if (hash == nullptr) return false;
  hash += std::strlen("\"param_hash\": \"");
  out->hash.assign(hash, std::strcspn(hash, "\""));
  out->deterministic =
      std::strstr(line.c_str(), "\"deterministic\": true") != nullptr;
  return true;
}

/// Child mode: run every agent-count point at this process's pool size
/// and append the JSON point lines to `emit_path`.
int run_child(const std::vector<std::size_t>& agent_counts,
              const SweepConfig& cfg, const std::string& emit_path) {
  std::FILE* f = std::fopen(emit_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
    return 1;
  }
  bool all_deterministic = true;
  for (const std::size_t agents : agent_counts) {
    const PointResult p = run_point(agents, cfg);
    all_deterministic = all_deterministic && p.deterministic;
    print_point_json(f, p, /*last=*/false);
  }
  std::fclose(f);
  if (!all_deterministic) {
    std::fprintf(stderr, "FATAL: twin identically seeded runs diverged\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SweepConfig cfg;
  std::vector<std::size_t> agent_counts = {100, 1000, 10000, 100000};
  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  std::string out_path = "BENCH_scale.json";
  std::string emit_path;  // non-empty: child mode
  std::string agents_csv = "100,1000,10000,100000";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      agents_csv = argv[++i];
      agent_counts = parse_csv_sizes(agents_csv.c_str());
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      cfg.rounds = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--params") == 0 && i + 1 < argc) {
      cfg.params = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      cfg.shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--pool-workers") == 0 && i + 1 < argc) {
      worker_counts = parse_csv_sizes(argv[++i]);
    } else if (std::strcmp(argv[i], "--fanout") == 0 && i + 1 < argc) {
      cfg.fanout = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--topology") == 0 && i + 1 < argc) {
      const auto kind = net::parse_topology_kind(argv[++i]);
      if (!kind) {
        std::fprintf(stderr, "unknown topology %s\n", argv[i]);
        return 2;
      }
      cfg.topology = *kind;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--emit") == 0 && i + 1 < argc) {
      emit_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--agents CSV] [--rounds R] [--params P] "
                   "[--shards S] [--pool-workers CSV] [--topology NAME] "
                   "[--fanout N] [--out P]\n",
                   argv[0]);
      return 2;
    }
  }
  if (agent_counts.empty() || worker_counts.empty()) {
    std::fprintf(stderr, "scale_sweep: empty --agents or --pool-workers\n");
    return 2;
  }

  if (!emit_path.empty()) {
    return run_child(agent_counts, cfg, emit_path);
  }

  bench::print_figure_header(
      "Round engine scale sweep (perf baseline)",
      "city-scale DFL needs O(N*degree) broadcast and bounded threads — "
      "the round engine runs it without per-phase barriers");
  std::printf("topology=%s params=%zu rounds=%zu shards=%zu\n\n",
              net::topology_name(cfg.topology), cfg.params, cfg.rounds,
              cfg.shards);

  // One child process per pool worker count: PFDRL_POOL_WORKERS is read
  // once at the pool's construction, so the sweep needs a fresh process
  // per count to honor it everywhere (exchange internals included).
  std::vector<std::string> point_lines;
  std::vector<ParsedPoint> parsed;
  bool all_deterministic = true;
  for (const std::size_t workers : worker_counts) {
    const std::string child_out =
        out_path + ".w" + std::to_string(workers) + ".tmp";
    std::string cmd = "PFDRL_POOL_WORKERS=" + std::to_string(workers) + " '" +
                      argv[0] + "' --emit '" + child_out + "' --agents '" +
                      agents_csv + "' --rounds " + std::to_string(cfg.rounds) +
                      " --params " + std::to_string(cfg.params) + " --shards " +
                      std::to_string(cfg.shards) + " --fanout " +
                      std::to_string(cfg.fanout) + " --topology " +
                      net::topology_name(cfg.topology);
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "scale_sweep: child at %zu workers failed (%d)\n",
                   workers, rc);
      return 1;
    }
    std::FILE* cf = std::fopen(child_out.c_str(), "r");
    if (cf == nullptr) {
      std::fprintf(stderr, "scale_sweep: child wrote no %s\n",
                   child_out.c_str());
      return 1;
    }
    char line[2048];
    while (std::fgets(line, sizeof(line), cf) != nullptr) {
      ParsedPoint p;
      if (!parse_point_line(line, &p)) {
        std::fprintf(stderr, "scale_sweep: unparsable child line: %s", line);
        std::fclose(cf);
        return 1;
      }
      point_lines.emplace_back(line);
      all_deterministic = all_deterministic && p.deterministic;
      parsed.push_back(std::move(p));
    }
    std::fclose(cf);
    std::remove(child_out.c_str());
  }

  // The determinism contract: one hash per agent count, across every
  // pool_workers count.
  std::map<std::size_t, std::string> hash_by_agents;
  bool hash_consistent = true;
  for (const ParsedPoint& p : parsed) {
    auto [it, inserted] = hash_by_agents.emplace(p.agents, p.hash);
    if (!inserted && it->second != p.hash) {
      std::fprintf(stderr,
                   "FATAL: param_hash mismatch at %zu agents (workers=%zu: "
                   "%s vs %s)\n",
                   p.agents, p.pool_workers, p.hash.c_str(),
                   it->second.c_str());
      hash_consistent = false;
    }
  }

  util::TextTable table({"agents", "workers", "agent-rounds/s", "stall s",
                         "overlap s", "deterministic"});
  for (const ParsedPoint& p : parsed) {
    table.add_row({std::to_string(p.agents), std::to_string(p.pool_workers),
                   util::fmt_double(p.rate, 0), util::fmt_double(p.stall, 3),
                   util::fmt_double(p.overlap, 3),
                   p.deterministic ? "yes" : "NO"});
  }
  table.print();

  if (!all_deterministic || !hash_consistent) {
    std::fprintf(stderr, "FATAL: engine determinism contract violated\n");
    return 1;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"scale_sweep\",\n"
               "  \"manifest\": %s,\n"
               "  \"topology\": \"%s\",\n"
               "  \"params\": %zu,\n"
               "  \"rounds\": %zu,\n"
               "  \"shards\": %zu,\n"
               "  \"deterministic\": %s,\n"
               "  \"hash_consistent\": %s,\n"
               "  \"points\": [\n",
               bench::manifest_json(worker_counts).c_str(),
               net::topology_name(cfg.topology), cfg.params, cfg.rounds,
               cfg.shards, all_deterministic ? "true" : "false",
               hash_consistent ? "true" : "false");
  for (std::size_t i = 0; i < point_lines.size(); ++i) {
    std::string line = point_lines[i];
    if (i + 1 == point_lines.size()) {
      // Strip the trailing comma the child always emits.
      const std::size_t tail = line.rfind("},");
      if (tail != std::string::npos) line.replace(tail, 2, "}");
    }
    std::fputs(line.c_str(), f);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nbaseline written to %s\n", out_path.c_str());

  bench::dump_metrics("scale_sweep");
  return 0;
}
