// pfdrl_e2e workloads and the one instrumented PFDRL run they all share.
//
// A run drives the library through its public calls only, in the order a
// user's program makes them, and times each call from outside:
//
//   generate           sim::Scenario::generate
//   construct          core::EmsPipeline constructor
//   train_forecasters  days [0, 2)
//   train_ems          days [2, D-1)
//   evaluate           day D-1 (greedy policy)
//   forecast_accuracy  day D-1
//
// setup_s covers the first two calls (made three times per run; the
// median counts) and run_s the last four. A traced run also snapshots
// getrusage and the run's obs::MetricsRegistry at each boundary, so every
// phase gets its CPU time and counter deltas.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/method.hpp"
#include "json.hpp"
#include "net/topology.hpp"

namespace pfdrl::e2e {

enum class Scale { kFull, kSmoke };

/// Which sim:: pipeline preset a workload starts from.
enum class Preset { kPaper, kFast, kBench };

/// The inputs of one workload. Only workload inputs are set here; engine
/// knobs whose defaults a change may flip (sync mode, fused training,
/// wire codec) are left as users get them.
struct Workload {
  std::string name;
  Preset preset = Preset::kPaper;
  core::EmsMethod method = core::EmsMethod::kPfdrl;
  std::uint32_t homes = 10;
  std::size_t days = 5;
  std::size_t shards = 4;
  double beta_hours = 12.0;
  double gamma_hours = 12.0;
  std::optional<net::TopologyKind> topology;
  double drop = 0.0;
  /// "AGENT:FROM:TO" crash window, empty for none.
  std::string crash;
  double quorum = 0.0;

  /// The workload as run at `scale` (smoke: <= 4 homes, 4 days).
  [[nodiscard]] Workload at(Scale scale) const;
  /// Its inputs as a JSON object (the manifest's workload arguments).
  [[nodiscard]] Json args() const;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has this name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// One boundary-to-boundary span of a run.
struct Phase {
  std::string name;
  double start_s = 0.0;  ///< from the start of the run
  double wall_s = 0.0;
  /// Traced runs only: Δ(utime+stime) / (wall × pool workers), the pool's
  /// busy share (idle workers block on a condition variable).
  double cpu_util = 0.0;
  Json counters;         ///< traced runs only: registry counter deltas
};

struct RunResult {
  bool ok = false;
  std::string error;  ///< why the run failed; empty when ok
  double setup_s = 0.0;
  double run_s = 0.0;
  double forecast_accuracy = 0.0;
  double net_savings_frac = 0.0;
  double comm_mib = 0.0;
  /// FNV-1a over every forecaster's and DQN's parameters, home-major.
  std::uint64_t param_hash = 0;
  std::vector<Phase> phases;
  /// Traced runs only: the per-layer metrics of this run (without the
  /// cross-run scale.* and trace.overhead_frac entries).
  Json layer;
};

/// Execute one complete run of `w` (already scaled) with `seed`.
/// Exceptions from the library are caught and reported in `error`.
[[nodiscard]] RunResult run_workload(const Workload& w, std::uint64_t seed,
                                     bool traced, std::size_t pool_workers);

}  // namespace pfdrl::e2e
