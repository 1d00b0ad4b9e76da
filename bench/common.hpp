// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary regenerates one table/figure of the paper's evaluation
// section (see DESIGN.md §4 for the index) and prints the series as an
// aligned text table. Scales are chosen for single-core laptop runtimes;
// absolute numbers therefore differ from the paper's testbed, but the
// *shape* (ordering, optima, crossovers) is the reproduction target.
#pragma once

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::bench {

/// Standard bench neighbourhood: 5 homes, seeded; `days` trace days.
inline sim::Scenario bench_scenario(std::size_t days,
                                    std::uint32_t homes = 5,
                                    std::uint64_t seed = 42) {
  sim::ScenarioConfig cfg;
  cfg.neighborhood.num_households = homes;
  cfg.neighborhood.min_devices = 4;
  cfg.neighborhood.max_devices = 5;
  cfg.neighborhood.seed = seed;
  cfg.trace.days = days;
  cfg.trace.seed = seed;
  return sim::Scenario::generate(cfg);
}

inline void print_figure_header(const std::string& figure,
                                const std::string& paper_claim) {
  std::printf("=== %s ===\n", figure.c_str());
  std::printf("paper: %s\n\n", paper_claim.c_str());
}

/// Fixed-order FNV-1a over raw parameter bytes — the bitwise fingerprint
/// the determinism asserts compare across modes and pool worker counts.
inline std::uint64_t fnv1a_params(std::span<const double> params) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

// Build facts bench/CMakeLists.txt bakes into the BENCH_*.json
// emitters; other includers see "unknown".
#ifndef PFDRL_BENCH_GIT_SHA
#define PFDRL_BENCH_GIT_SHA "unknown"
#endif
#ifndef PFDRL_BENCH_BUILD_TYPE
#define PFDRL_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PFDRL_BENCH_MARCH
#define PFDRL_BENCH_MARCH "unknown"
#endif
#ifndef PFDRL_BENCH_FP_CONTRACT
#define PFDRL_BENCH_FP_CONTRACT "unknown"
#endif

/// The manifest of a BENCH_*.json, as a JSON object: where and how it
/// was measured — the tree's git describe and the build type (baked in
/// at configure time, bench/CMakeLists.txt), the compiler, `-march` and
/// FP contraction of this build, the CPUs this process may run on
/// (`nproc`) and the pool worker counts measured.
inline std::string manifest_json(std::span<const std::size_t> pool_workers) {
  cpu_set_t cpus;
  const unsigned nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                             ? static_cast<unsigned>(CPU_COUNT(&cpus))
                             : std::thread::hardware_concurrency();
  std::string workers;
  for (const std::size_t w : pool_workers) {
    workers += (workers.empty() ? "" : ", ") + std::to_string(w);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"git_sha\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"march\": \"%s\", "
                "\"fp_contract\": \"%s\", \"nproc\": %u, "
                "\"pool_workers\": [%s]}",
                PFDRL_BENCH_GIT_SHA, PFDRL_BENCH_BUILD_TYPE, __VERSION__,
                PFDRL_BENCH_MARCH, PFDRL_BENCH_FP_CONTRACT, nproc,
                workers.c_str());
  return buf;
}

/// Metrics sidecar hook: when PFDRL_METRICS_DIR is set, fold the runtime
/// pool counters into the global registry and write everything the run
/// recorded to `<dir>/<bench_name>.metrics.json`. Call at the end of
/// main() — a no-op without the env var, so benches stay silent by
/// default.
inline void dump_metrics(const std::string& bench_name) {
  const char* dir = std::getenv("PFDRL_METRICS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  auto& reg = obs::MetricsRegistry::global();
  obs::record_thread_pool_stats(reg, "pool",
                                util::ThreadPool::global().stats());
  obs::record_nn_workspace_stats(reg);
  obs::record_nn_kernel_stats(reg);
  const std::string path =
      std::string(dir) + "/" + bench_name + ".metrics.json";
  reg.write_json(path);
  std::printf("\nmetrics written to %s\n", path.c_str());
}

}  // namespace pfdrl::bench
