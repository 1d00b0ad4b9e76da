// pfdrl_e2e — the repository's end-to-end benchmark (see README.md).
//
//   pfdrl_e2e [--workload NAME|all] [--seed N] [--seconds S | --reps N]
//             [--scale full|smoke] [--trace 0|1] [--workers CSV]
//             [--out PATH] [--trace-out PATH]
//   pfdrl_e2e --compare BASE.json NEW.json [--bounds BENCHMARK.json]
//
// The process that reads these flags runs no workload itself. It
// re-executes this binary with --child once per (workload, pool size), in
// sequence — a closed loop, one run at a time — so that every child has
// its own pool size and its own peak RSS, and reads back the child's
// one-line JSON result. The last line it prints is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or, for a traced run (--trace 1 or --trace-out), the per-layer metrics.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "json.hpp"
#include "nn/kernels.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace {

using namespace pfdrl;
using e2e::Json;

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json declares these names with the same units; the smoke
// test checks that the two lists agree.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"comm_mib", "MiB"},
    {"forecast_accuracy", "fraction"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.generate_s", "s"},
    {"core.construct_s", "s"},
    {"forecast.phase_s", "s"},
    {"forecast.cpu_util", "fraction"},
    {"forecast.train_windows", "count"},
    {"forecast.windows_per_s", "1/s"},
    {"forecast.round_s.p50", "s"},
    {"forecast.round_s.phi", "s"},
    {"nn.kernel_train_batches", "count"},
    {"nn.fused_batches", "count"},
    {"forecast.accuracy_s", "s"},
    {"ems.eval_s", "s"},
    {"ems.eval_cpu_util", "fraction"},
    {"ems.net_savings_frac", "fraction"},
    {"episode.cache_hit_frac", "fraction"},
    {"ems.phase_s", "s"},
    {"ems.cpu_util", "fraction"},
    {"ems.decisions", "count"},
    {"ems.decisions_per_s", "1/s"},
    {"rl.learn_calls", "count"},
    {"rl.learns_per_s", "1/s"},
    {"nn.workspace_allocs", "count"},
    {"core.ems_round_s.p50", "s"},
    {"core.ems_round_s.phi", "s"},
    {"core.pipeline_depth", "count"},
    {"pool.tasks_executed", "count"},
    {"pool.tasks_stolen", "count"},
    {"pool.max_queue_depth", "count"},
    {"net.forecast_msgs", "count"},
    {"net.drl_msgs", "count"},
    {"net.forecast_dropped", "count"},
    {"net.drl_dropped", "count"},
    {"net.forecast_logical_mib", "MiB"},
    {"net.drl_logical_mib", "MiB"},
    {"net.forecast_wire_mib", "MiB"},
    {"net.drl_wire_mib", "MiB"},
    {"net.shard_batches", "count"},
    {"net.shard_batched_msgs", "count"},
    {"fl.forecast_contributions", "count"},
    {"drl.params_averaged", "count"},
    {"exchange.items", "count"},
    {"exchange.payload_copies", "count"},
    {"exchange.relays", "count"},
    {"exchange.retries", "count"},
    {"wire.encode_s", "s"},
    {"wire.ratio", "ratio"},
    {"exchange.stale_frac", "fraction"},
    {"fault.drops", "count"},
    {"scale.run_speedup_2w", "ratio"},
    {"scale.run_speedup_4w", "ratio"},
    {"scale.forecast_speedup_4w", "ratio"},
    {"scale.ems_speedup_4w", "ratio"},
    {"phase.residual_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The ledger must account for all but this share of a run's wall time.
constexpr double kMaxResidual = 0.05;
/// Untraced runs a traced pass makes for its overhead reference, unless
/// --reps says otherwise.
constexpr std::size_t kReferenceReps = 3;
/// Fewest runs a time-boxed child makes, however long a run takes.
constexpr std::size_t kMinReps = 3;

struct Options {
  std::vector<const e2e::Workload*> workloads;
  std::uint64_t seed = 42;
  double seconds = 25.0;
  std::size_t reps = 0;  ///< 0: run for `seconds`
  e2e::Scale scale = e2e::Scale::kFull;
  bool traced = false;
  std::vector<std::size_t> sweep = {1, 2, 4};  ///< sorted, unique
  std::string out;
  std::string trace_out;
  bool child = false;
  std::size_t pool = 0;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "pfdrl_e2e: %s\n"
               "usage: pfdrl_e2e [--workload NAME|all] [--seed N] "
               "[--seconds S | --reps N] [--scale full|smoke] [--trace 0|1] "
               "[--workers CSV] [--out PATH] [--trace-out PATH]\n"
               "       pfdrl_e2e --compare BASE.json NEW.json "
               "[--bounds BENCHMARK.json]\n",
               msg.c_str());
  std::exit(2);
}

std::size_t parse_count(const std::string& s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || v == 0 || v > 1000000) {
    usage(std::string(flag) + " needs a positive integer, got '" + s + "'");
  }
  return static_cast<std::size_t>(v);
}

std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

std::size_t default_workers() { return std::min<std::size_t>(4, nproc()); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text << '\n';
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Child: run one workload in-process and print one JSON line.

Json run_json(const e2e::RunResult& r, bool traced) {
  Json j = Json::object();
  j["ok"] = r.ok;
  j["error"] = r.error;
  j["setup_s"] = r.setup_s;
  j["run_s"] = r.run_s;
  j["forecast_accuracy"] = r.forecast_accuracy;
  j["comm_mib"] = r.comm_mib;
  j["param_hash"] = hex64(r.param_hash);
  if (traced) {
    Json phases = Json::array();
    for (const e2e::Phase& p : r.phases) {
      Json ph = Json::object();
      ph["name"] = p.name;
      ph["start_s"] = p.start_s;
      ph["wall_s"] = p.wall_s;
      ph["cpu_util"] = p.cpu_util;
      ph["counters"] = p.counters;
      phases.push_back(std::move(ph));
    }
    j["phases"] = std::move(phases);
    j["layer"] = r.layer;
  }
  return j;
}

int child_main(const e2e::Workload& w, const Options& o) {
  util::ThreadPool::set_global_workers(o.pool);
  Json runs = Json::array();
  // Peak RSS after the first run: what a process running the workload
  // once needs. Later runs only add allocator fragmentation, which would
  // make the number depend on how many runs fit the budget.
  double first_run_rss = 0.0;
  const util::Stopwatch budget;
  for (std::size_t i = 0;; ++i) {
    if (o.reps > 0) {
      if (i >= o.reps) break;
    } else if (i >= kMinReps) {
      // Stop before a run that would overrun the budget.
      const double per_run = budget.elapsed_seconds() / static_cast<double>(i);
      if (budget.elapsed_seconds() + per_run > o.seconds) break;
    }
    runs.push_back(run_json(e2e::run_workload(w, o.seed, o.traced, o.pool),
                            o.traced));
    if (i == 0) first_run_rss = peak_rss_mib();
  }
  Json out = Json::object();
  out["workload"] = w.name;
  out["pool_workers"] = o.pool;
  out["peak_rss_mib"] = first_run_rss;
  out["runs"] = std::move(runs);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: spawn children, aggregate, report.

/// Re-execute this binary with `args` and parse the last line it prints.
/// The child inherits stderr; this waits for it to exit.
Json spawn_child(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    static char self[] = "pfdrl_e2e";
    argv.push_back(self);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child run failed (status " +
                             std::to_string(status) + ")");
  }
  while (!text.empty() && text.back() == '\n') text.pop_back();
  const std::size_t nl = text.rfind('\n');
  return Json::parse(nl == std::string::npos ? text : text.substr(nl + 1));
}

Json run_child(const e2e::Workload& w, const Options& o, std::size_t pool,
               bool traced, std::size_t reps) {
  std::vector<std::string> args = {
      "--child", "--workload", w.name, "--seed", std::to_string(o.seed),
      "--pool", std::to_string(pool), "--scale",
      o.scale == e2e::Scale::kSmoke ? "smoke" : "full"};
  if (reps > 0) {
    args.insert(args.end(), {"--reps", std::to_string(reps)});
  } else {
    std::ostringstream s;
    s << o.seconds;
    args.insert(args.end(), {"--seconds", s.str()});
  }
  if (traced) args.insert(args.end(), {"--trace", "1"});
  return spawn_child(args);
}

Json distribution(std::vector<double> values, const char* unit) {
  Json d = Json::object();
  d["unit"] = unit;
  d["median"] = util::percentile(values, 0.5);
  d["q1"] = util::percentile(values, 0.25);
  d["q3"] = util::percentile(values, 0.75);
  d["n"] = values.size();
  Json arr = Json::array();
  for (const double v : values) arr.push_back(v);
  d["values"] = std::move(arr);
  return d;
}

/// Runs that failed: threw, produced a bad metric, or disagree with the
/// first good run's parameter hash (the runs of one workload and seed
/// must be bitwise identical whatever the pool size).
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string hash;  ///< the first good run's
};

void judge(const Json& child, Tally& v) {
  for (const Json& run : child.at("runs").elements()) {
    ++v.attempted;
    const std::string& hash = run.at("param_hash").as_string();
    if (run.at("ok").as_bool() && v.hash.empty()) v.hash = hash;
    if (!run.at("ok").as_bool() || hash != v.hash) {
      ++v.failed;
      std::string why = run.at("error").as_string();
      if (why.empty()) why = "param hash " + hash + " != " + v.hash;
      std::fprintf(stderr, "pfdrl_e2e: %s run failed: %s\n",
                   child.at("workload").as_string().c_str(), why.c_str());
    }
  }
}

/// End-to-end metric distributions over a child's good runs.
Json end_to_end(const Json& child, const Tally& v) {
  std::map<std::string, std::vector<double>> values;
  for (const Json& run : child.at("runs").elements()) {
    if (!run.at("ok").as_bool() || run.at("param_hash").as_string() != v.hash) {
      continue;
    }
    for (const MetricDef& m : kEndToEnd) {
      if (const Json* x = run.find(m.name)) values[m.name].push_back(x->as_number());
    }
  }
  values["peak_rss_mib"] = {child.at("peak_rss_mib").as_number()};
  Json metrics = Json::object();
  for (const MetricDef& m : kEndToEnd) {
    metrics[m.name] = distribution(values[m.name], m.unit);
  }
  return metrics;
}

struct WorkloadReport {
  Json doc = Json::object();      ///< this workload's entry in --out
  Json headline = Json::object();  ///< metric -> {value, unit}, result line
  Tally tally;
  bool correct = true;
  Json trace_events = Json::array();
};

void print_e2e_table(const std::string& name, const Json& metrics,
                     const Tally& v) {
  util::TextTable table({"metric", "unit", "median", "q1", "q3", "n"});
  for (const auto& [metric, d] : metrics.items()) {
    table.add_row({metric, d.at("unit").as_string(),
                   util::fmt_double(d.at("median").as_number(), 4),
                   util::fmt_double(d.at("q1").as_number(), 4),
                   util::fmt_double(d.at("q3").as_number(), 4),
                   std::to_string(static_cast<int>(d.at("n").as_number()))});
  }
  table.add_row({"failed_frac", "fraction",
                 util::fmt_double(v.attempted > 0
                                      ? static_cast<double>(v.failed) /
                                            static_cast<double>(v.attempted)
                                      : 1.0,
                                  4),
                 "", "", std::to_string(v.attempted)});
  table.print(name + ":");
  std::printf("\n");
}

WorkloadReport measure_untraced(const e2e::Workload& w, const Options& o) {
  WorkloadReport rep;
  const Json child = run_child(w, o, default_workers(), false, o.reps);
  judge(child, rep.tally);
  const Json metrics = end_to_end(child, rep.tally);
  for (const auto& [name, d] : metrics.items()) {
    rep.headline[name]["value"] = d.at("median");
    rep.headline[name]["unit"] = d.at("unit");
  }
  print_e2e_table(w.name, metrics, rep.tally);
  rep.correct = rep.tally.failed == 0;
  rep.doc["metrics"] = metrics;
  return rep;
}

/// The run of a traced child whose run_s is the median (the lower middle
/// for an even count): the ledger describes a typical run, not a cold one.
const Json& typical_run(const Json& child) {
  std::vector<const Json*> runs;
  for (const Json& r : child.at("runs").elements()) runs.push_back(&r);
  std::sort(runs.begin(), runs.end(), [](const Json* a, const Json* b) {
    return a->at("run_s").as_number() < b->at("run_s").as_number();
  });
  return *runs.at((runs.size() - 1) / 2);
}

/// NaN when the run failed before its ledger was computed.
double layer_value(const Json& run, const char* metric) {
  const Json* v = run.at("layer").find(metric);
  return v != nullptr && v->is_number() ? v->as_number() : kNaN;
}

/// Chrome trace events of one traced child: one process per worker
/// count, one thread lane per run, one span per phase.
void add_trace_events(const e2e::Workload& w, const Json& child,
                      std::size_t workers, std::size_t pid, Json& events) {
  Json meta = Json::object();
  meta["name"] = "process_name";
  meta["ph"] = "M";
  meta["pid"] = pid;
  meta["args"]["name"] = w.name + " workers=" + std::to_string(workers);
  events.push_back(std::move(meta));
  std::size_t tid = 0;
  for (const Json& run : child.at("runs").elements()) {
    for (const Json& p : run.at("phases").elements()) {
      Json ev = Json::object();
      ev["name"] = p.at("name");
      ev["cat"] = "phase";
      ev["ph"] = "X";
      ev["pid"] = pid;
      ev["tid"] = tid;
      ev["ts"] = p.at("start_s").as_number() * 1e6;
      ev["dur"] = p.at("wall_s").as_number() * 1e6;
      ev["args"] = p.at("counters");
      ev["args"]["cpu_util"] = p.at("cpu_util");
      events.push_back(std::move(ev));
    }
    ++tid;
  }
}

WorkloadReport measure_traced(const e2e::Workload& w, const Options& o,
                              std::size_t pid_base) {
  WorkloadReport rep;
  const std::vector<std::size_t>& sweep = o.sweep;
  const std::size_t ledger_workers =
      std::count(sweep.begin(), sweep.end(), default_workers()) > 0
          ? default_workers()
          : sweep.back();
  const std::size_t reps = o.reps > 0 ? o.reps : kReferenceReps;

  const Json reference = run_child(w, o, ledger_workers, false, reps);
  judge(reference, rep.tally);
  const Json ref_metrics = end_to_end(reference, rep.tally);

  // The ledger's worker count runs as many traced runs as the untraced
  // reference, for trace.overhead_frac; the others run once, for scale.*.
  std::map<std::size_t, Json> traced;
  bool residual_ok = true;
  for (const std::size_t k : sweep) {
    Json child = run_child(w, o, k, true, k == ledger_workers ? reps : 1);
    judge(child, rep.tally);
    for (const Json& run : child.at("runs").elements()) {
      const double residual = layer_value(run, "phase.residual_frac");
      if (!(residual <= kMaxResidual)) {
        residual_ok = false;
        std::fprintf(stderr,
                     "pfdrl_e2e: %s at %zu workers: phase.residual_frac %.4f "
                     "> %.2f, so the ledger is missing a phase\n",
                     w.name.c_str(), k, residual, kMaxResidual);
      }
    }
    add_trace_events(w, child, k, pid_base + k, rep.trace_events);
    traced.emplace(k, std::move(child));
  }

  const Json& ledger = typical_run(traced.at(ledger_workers));
  // 1-worker time over k-worker time of `seconds(run)`.
  const auto speedup = [&](std::size_t k, const auto& seconds) {
    if (traced.count(1) == 0 || traced.count(k) == 0) return kNaN;
    return seconds(typical_run(traced.at(1))) /
           seconds(typical_run(traced.at(k)));
  };
  const auto run_s = [](const Json& run) { return run.at("run_s").as_number(); };
  const auto phase_s = [](const char* metric) {
    return [metric](const Json& run) { return layer_value(run, metric); };
  };
  std::vector<double> traced_run_s;
  for (const Json& run : traced.at(ledger_workers).at("runs").elements()) {
    traced_run_s.push_back(run_s(run));
  }
  Json layer = ledger.at("layer");
  layer["scale.run_speedup_2w"] = speedup(2, run_s);
  layer["scale.run_speedup_4w"] = speedup(4, run_s);
  layer["scale.forecast_speedup_4w"] = speedup(4, phase_s("forecast.phase_s"));
  layer["scale.ems_speedup_4w"] = speedup(4, phase_s("ems.phase_s"));
  layer["trace.overhead_frac"] =
      util::percentile(traced_run_s, 0.5) /
          ref_metrics.at("run_s").at("median").as_number() -
      1.0;

  util::TextTable phases({"phase", "wall s", "cpu_util"});
  for (const Json& p : ledger.at("phases").elements()) {
    phases.add_row({p.at("name").as_string(),
                    util::fmt_double(p.at("wall_s").as_number(), 4),
                    util::fmt_double(p.at("cpu_util").as_number(), 3)});
  }
  phases.print(w.name + " phase ledger (" + std::to_string(ledger_workers) +
               " workers):");
  util::TextTable table({"metric", "unit", "value"});
  for (const MetricDef& m : kPerLayer) {
    const Json* v = layer.find(m.name);
    rep.headline[m.name]["value"] = v != nullptr ? *v : Json();
    rep.headline[m.name]["unit"] = m.unit;
    table.add_row({m.name, m.unit,
                   v != nullptr && v->is_number()
                       ? util::fmt_double(v->as_number(), 4)
                       : "n/a"});
  }
  table.print();
  std::printf("\n");

  rep.correct = rep.tally.failed == 0 && residual_ok;
  rep.doc["metrics"] = ref_metrics;
  Json& layers = rep.doc["layers"];
  layers["ledger_workers"] = ledger_workers;
  layers["phases"] = ledger.at("phases");
  layers["metrics"] = std::move(layer);
  return rep;
}

Json manifest(const Options& o) {
  Json m = Json::object();
  m["git_sha"] = PFDRL_E2E_GIT_SHA;
  m["build_type"] = PFDRL_E2E_BUILD_TYPE;
  m["compiler"] = __VERSION__;
  m["flags"] = PFDRL_E2E_CXX_FLAGS;
  m["nproc"] = nproc();
  m["pool_workers"] = default_workers();
  if (o.traced) {
    Json sweep = Json::array();
    for (const std::size_t k : o.sweep) sweep.push_back(k);
    m["trace_workers"] = std::move(sweep);
  }
  m["vector_math"] = nn::kernels::vector_math_active() ? "libmvec" : "scalar";
  m["seed"] = static_cast<double>(o.seed);
  m["scale"] = o.scale == e2e::Scale::kSmoke ? "smoke" : "full";
  if (o.reps > 0) {
    m["reps"] = o.reps;
  } else {
    m["seconds"] = o.seconds;
  }
  Json args = Json::object();
  for (const e2e::Workload* w : o.workloads) {
    args[w->name] = w->at(o.scale).args();
  }
  m["workloads"] = std::move(args);
  return m;
}

int parent_main(const Options& o) {
  const Json mf = manifest(o);
  Json doc = Json::object();
  doc["manifest"] = mf;
  Json& workloads = doc["workloads"];
  Json events = Json::array();
  Json layers = Json::object();
  Json metrics = Json::object();
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const bool single = o.workloads.size() == 1;
  for (std::size_t i = 0; i < o.workloads.size(); ++i) {
    const e2e::Workload& w = *o.workloads[i];
    WorkloadReport rep = o.traced ? measure_traced(w, o, 100 * (i + 1))
                                  : measure_untraced(w, o);
    correct = correct && rep.correct;
    attempted += rep.tally.attempted;
    failed += rep.tally.failed;
    rep.doc["attempted"] = rep.tally.attempted;
    rep.doc["failed"] = rep.tally.failed;
    rep.doc["param_hash"] = rep.tally.hash;
    for (const auto& [name, entry] : rep.headline.items()) {
      metrics[single ? name : w.name + "." + name] = entry;
    }
    for (const Json& ev : rep.trace_events.elements()) events.push_back(ev);
    if (const Json* l = rep.doc.find("layers")) layers[w.name] = *l;
    workloads[w.name] = std::move(rep.doc);
  }

  try {
    if (!o.out.empty()) write_file(o.out, doc.dump());
    if (!o.trace_out.empty()) {
      Json trace = Json::object();
      trace["traceEvents"] = std::move(events);
      trace["displayTimeUnit"] = "ms";
      trace["manifest"] = mf;
      trace["layers"] = std::move(layers);
      write_file(o.trace_out, trace.dump());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfdrl_e2e: %s\n", e.what());
    return 1;
  }

  Json result = Json::object();
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Compare mode.

struct Bound {
  std::string name;
  std::string unit;
  bool higher_better = false;
  double bound = 0.0;
};

std::vector<Bound> load_bounds(const std::string& path) {
  std::vector<Bound> out;
  const Json doc = Json::parse(read_file(path));
  for (const Json& m : doc.at("end_to_end").elements()) {
    out.push_back({m.at("name").as_string(), m.at("unit").as_string(),
                   m.at("better").as_string() == "higher",
                   m.at("bound").as_number()});
  }
  return out;
}

/// A --out document, or the first of a baseline file's "sets".
Json load_set(const std::string& path) {
  Json doc = Json::parse(read_file(path));
  if (const Json* sets = doc.find("sets")) return sets->elements().at(0);
  return doc;
}

struct Side {
  std::vector<double> values;
  double median = kNaN, q1 = kNaN, q3 = kNaN;
};

Side side_of(const Json& set, const std::string& workload,
             const std::string& metric) {
  Side s;
  const Json* w = set.at("workloads").find(workload);
  const Json* m = w != nullptr ? w->at("metrics").find(metric) : nullptr;
  if (m == nullptr) return s;
  for (const Json& v : m->at("values").elements()) s.values.push_back(v.as_number());
  if (s.values.empty()) return s;
  s.median = util::percentile(s.values, 0.5);
  s.q1 = util::percentile(s.values, 0.25);
  s.q3 = util::percentile(s.values, 0.75);
  return s;
}

std::string describe(const Side& s) {
  if (s.values.empty()) return "n/a";
  return util::fmt_double(s.median, 4) + " [" + util::fmt_double(s.q1, 4) +
         ", " + util::fmt_double(s.q3, 4) + "]";
}

/// better / worse / unchanged by the metric's bound, or unresolved when
/// either side's quartile spread is wider than the bound — unless every
/// new value beats every base value.
std::string verdict(const Side& base, const Side& now, const Bound& b,
                    double* change) {
  *change = kNaN;
  if (base.values.empty() || now.values.empty()) return "missing";
  const double sign = b.higher_better ? -1.0 : 1.0;  // > 0 means worse
  *change = sign * (now.median - base.median) / std::fabs(base.median);
  const auto spread = [](const Side& s) {
    return (s.q3 - s.q1) / std::fabs(s.median);
  };
  if (std::max(spread(base), spread(now)) > b.bound) {
    const auto [bmin, bmax] = std::minmax_element(base.values.begin(), base.values.end());
    const auto [nmin, nmax] = std::minmax_element(now.values.begin(), now.values.end());
    const bool all_better = b.higher_better ? *nmin > *bmax : *nmax < *bmin;
    return all_better ? "better" : "unresolved";
  }
  if (*change > b.bound) return "worse";
  if (*change < -b.bound) return "better";
  return "unchanged";
}

int compare_main(const std::string& base_path, const std::string& new_path,
                 const std::string& bounds_path) {
  std::vector<Bound> bounds;
  Json base;
  Json now;
  try {
    bounds = load_bounds(bounds_path);
    base = load_set(base_path);
    now = load_set(new_path);
    for (const char* key : {"pool_workers", "seed"}) {
      const Json& a = base.at("manifest").at(key);
      const Json& b = now.at("manifest").at(key);
      if (a.dump() != b.dump()) {
        throw std::runtime_error("refusing to compare runs with different " +
                                 std::string(key) + " (" + a.dump() + " vs " +
                                 b.dump() + ")");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfdrl_e2e --compare: %s\n", e.what());
    return 2;
  }
  util::TextTable table({"workload", "metric", "unit", "bound",
                         "base median [q1, q3]", "new median [q1, q3]",
                         "change", "verdict"});
  bool any_worse = false;
  for (const auto& [workload, unused] : base.at("workloads").items()) {
    if (now.at("workloads").find(workload) == nullptr) continue;
    for (const Bound& b : bounds) {
      const Side bs = side_of(base, workload, b.name);
      const Side ns = side_of(now, workload, b.name);
      double change = kNaN;
      const std::string v = verdict(bs, ns, b, &change);
      any_worse = any_worse || v == "worse";
      table.add_row({workload, b.name, b.unit, util::fmt_percent(b.bound),
                     describe(bs), describe(ns),
                     std::isfinite(change) ? util::fmt_percent(change) : "n/a",
                     v});
    }
    // A change may not fail more runs than its parent.
    const auto frac = [&](const Json& set) {
      const Json& w = set.at("workloads").at(workload);
      const double att = w.at("attempted").as_number();
      return att > 0 ? w.at("failed").as_number() / att : 1.0;
    };
    const double fb = frac(base);
    const double fn = frac(now);
    const std::string v = fn > fb ? "worse" : fn < fb ? "better" : "unchanged";
    any_worse = any_worse || v == "worse";
    table.add_row({workload, "failed_frac", "fraction", "0",
                   util::fmt_double(fb, 4), util::fmt_double(fn, 4), "", v});
  }
  table.print();
  return any_worse ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string workload = "all";
  std::vector<std::string> compare;
  std::string bounds = "BENCHMARK.json";
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      const std::string s = next();
      char* end = nullptr;
      o.seed = std::strtoull(s.c_str(), &end, 10);
      if (s.empty() || *end != '\0') usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      const std::string s = next();
      char* end = nullptr;
      o.seconds = std::strtod(s.c_str(), &end);
      if (s.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
      seconds_set = true;
    } else if (arg == "--reps") {
      o.reps = parse_count(next(), "--reps");
    } else if (arg == "--scale") {
      const std::string s = next();
      if (s == "full") {
        o.scale = e2e::Scale::kFull;
      } else if (s == "smoke") {
        o.scale = e2e::Scale::kSmoke;
      } else {
        usage("--scale must be full or smoke");
      }
    } else if (arg == "--trace") {
      const std::string s = next();
      if (s != "0" && s != "1") usage("--trace must be 0 or 1");
      o.traced = s == "1";
    } else if (arg == "--workers") {
      o.sweep.clear();
      std::stringstream ss(next());
      std::string item;
      while (std::getline(ss, item, ',')) {
        o.sweep.push_back(parse_count(item, "--workers"));
      }
      if (o.sweep.empty()) usage("--workers needs at least one count");
      std::sort(o.sweep.begin(), o.sweep.end());
      o.sweep.erase(std::unique(o.sweep.begin(), o.sweep.end()), o.sweep.end());
    } else if (arg == "--out") {
      o.out = next();
    } else if (arg == "--trace-out") {
      o.trace_out = next();
      o.traced = true;
    } else if (arg == "--compare") {
      compare.push_back(next());
      compare.push_back(next());
    } else if (arg == "--bounds") {
      bounds = next();
    } else if (arg == "--child") {
      o.child = true;
    } else if (arg == "--pool") {
      o.pool = parse_count(next(), "--pool");
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!compare.empty()) return compare_main(compare[0], compare[1], bounds);
  if (o.reps > 0 && seconds_set) usage("--seconds and --reps exclude each other");

  if (workload == "all") {
    for (const e2e::Workload& w : e2e::workloads()) o.workloads.push_back(&w);
  } else if (const e2e::Workload* w = e2e::find_workload(workload)) {
    o.workloads.push_back(w);
  } else {
    usage("unknown workload " + workload);
  }

  if (o.child) {
    if (o.pool == 0 || o.workloads.size() != 1) {
      usage("--child needs --pool and one --workload");
    }
    return child_main(o.workloads.front()->at(o.scale), o);
  }
  try {
    return parent_main(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfdrl_e2e: %s\n", e.what());
    return 1;
  }
}
