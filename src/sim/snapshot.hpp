// Versioned run snapshots for warm-restart persistence.
//
// A RunSnapshot captures the full federation state of an EmsPipeline at
// an EMS-round boundary: every home's forecaster parameters + optimizer
// moments, every DQN agent's networks / Adam state / replay ring /
// exploration RNG / step counters, both message buses' fault-RNG streams
// and accounting, the deterministic metrics instruments, and the round
// counters the per-round RNG forks derive from. Restoring a snapshot
// into a freshly constructed pipeline (same traces, same config)
// continues the run bitwise — the crash-resume golden test in
// tests/sim_snapshot_test.cpp pins this.
//
// On disk a snapshot is a util::records stream (magic "PFRC", per-record
// CRC): record 0 is the header, record 1 the metrics, record 2 the bus
// states, then one record per DQN agent and one per forecaster. Files
// are written atomically (temp + rename), so a crash mid-save leaves the
// previous snapshot intact. See docs/persistence.md for the full format
// spec and the warm-restart semantics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "net/bus.hpp"
#include "obs/metrics.hpp"
#include "rl/dqn.hpp"
#include "sim/shard.hpp"
#include "util/rng.hpp"

namespace pfdrl::sim {

/// One DQN agent's state, addressed by (home, device index).
struct AgentSnapshot {
  std::uint64_t home = 0;
  std::uint64_t dev = 0;
  rl::DqnAgentState state;
};

/// One forecaster's parameters + training state. For the per-home
/// backends (Local / FL / FRL / PFDRL) the key is (home, device index);
/// for the Cloud backend `home` carries the data::DeviceType id of the
/// global model and `dev` is 0.
struct ForecasterSnapshot {
  std::uint64_t home = 0;
  std::uint64_t dev = 0;
  std::vector<double> parameters;
  std::vector<double> train_state;
};

/// A message bus's resumable state: the fault-RNG stream (so a resumed
/// chaos run draws the identical drop/delay mask) and the cumulative
/// accounting. In-flight inbox backlogs are intentionally NOT captured —
/// the exchange layer discards unread backlog as stale anyway
/// (docs/robustness.md).
struct BusSnapshot {
  bool present = false;
  util::RngState fault_rng;
  net::BusStats stats;
};

struct RunSnapshot {
  std::uint64_t seed = 0;
  std::uint32_t method = 0;           ///< core::EmsMethod
  std::uint32_t forecast_method = 0;  ///< forecast::Method
  std::uint64_t num_homes = 0;
  std::uint64_t ems_rounds_done = 0;
  /// Forecast-backend rounds (DflTrainer / CloudTrainer rounds_done).
  std::uint64_t forecast_rounds_done = 0;
  std::uint64_t raw_bytes_uploaded = 0;  ///< Cloud backend accounting.
  /// Trace minute the interrupted run had trained EMS up to — where a
  /// resumed run's train_ems() should continue from.
  std::uint64_t train_cursor_minutes = 0;
  bool cloud_backend = false;
  /// Shard identity of this (possibly partial) snapshot. Whole-run
  /// snapshots carry {0, 1}. Per-shard files written by a sharded
  /// SnapshotManager carry {k, S} and hold only shard k's agents and
  /// forecasters; the global state (buses, metrics, upload accounting)
  /// rides shard 0.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  /// Round-synchronization engine the writing run used (core::SyncMode).
  /// Provenance only — the pipelined and BSP engines are bitwise
  /// interchangeable, so restore never enforces a match; a bsp-written
  /// file resumes under pipeline and vice versa.
  std::uint32_t sync_mode = 0;
  BusSnapshot forecast_bus;
  BusSnapshot drl_bus;
  obs::MetricsSnapshot metrics;
  std::vector<AgentSnapshot> agents;
  std::vector<ForecasterSnapshot> forecasters;
};

/// Capture the pipeline's full resumable state. `train_cursor_minutes`
/// is recorded verbatim (the pipeline itself does not track minutes).
[[nodiscard]] RunSnapshot capture_run(const core::EmsPipeline& pipeline,
                                      std::uint64_t train_cursor_minutes = 0);

/// Restore a snapshot into a pipeline built from the same traces and
/// config. Validates seed / method / home count compatibility and every
/// parameter shape; throws std::runtime_error on mismatch. Invalidates
/// the forecast cache.
void restore_run(core::EmsPipeline& pipeline, const RunSnapshot& snapshot);

/// Restore only residence `home` (its agents and — for per-home
/// backends — its forecasters) from the snapshot, leaving every other
/// home and all global counters untouched: the warm restart of one
/// crashed home.
void restore_home(core::EmsPipeline& pipeline, const RunSnapshot& snapshot,
                  std::size_t home);

/// Snapshot <-> versioned record stream (util/records.hpp).
[[nodiscard]] std::vector<std::uint8_t> serialize_snapshot(
    const RunSnapshot& snapshot);
/// Throws std::runtime_error on truncated or corrupt input and on any
/// payload version other than the current one; never reads out of
/// bounds.
[[nodiscard]] RunSnapshot deserialize_snapshot(
    std::span<const std::uint8_t> bytes);

/// Atomic file IO (temp + rename; a crash mid-save leaves the previous
/// file intact).
void save_snapshot(const RunSnapshot& snapshot, const std::string& path);
[[nodiscard]] RunSnapshot load_snapshot(const std::string& path);

// --- Per-shard snapshots (docs/scaling.md) ----------------------------
// A city-scale run persists one file per shard instead of one monolithic
// blob: shards save independently (smaller atomic writes, no 100k-agent
// serialization on one thread's critical path) and a warm restart only
// rereads the shards it hosts. split → save each → load → merge is
// byte-identical to the whole-run snapshot.

/// File path of shard `shard` under base path `base` ("run.snap" →
/// "run.snap.shard3").
[[nodiscard]] std::string shard_snapshot_path(const std::string& base,
                                              std::size_t shard);

/// Partition a whole-run snapshot into plan.shards per-shard parts.
/// Shard k receives the agents and forecasters of homes in shard k's
/// range (Cloud-backend global forecasters ride shard 0); every part
/// repeats the header scalars, and shard 0 additionally carries the bus
/// states, metrics and upload accounting. Requires plan.num_homes ==
/// snapshot.num_homes and a whole-run input (shard_count == 1).
[[nodiscard]] std::vector<RunSnapshot> split_shards(
    const RunSnapshot& snapshot, const ShardPlan& plan);

/// Reassemble a whole-run snapshot from per-shard parts (any order;
/// validated to be exactly one of each shard index with consistent
/// headers). Merging the output of split_shards reproduces the original
/// snapshot byte-for-byte after serialization.
[[nodiscard]] RunSnapshot merge_shards(const std::vector<RunSnapshot>& parts);

/// Split + atomically save one file per shard under `base`.
void save_sharded_snapshot(const RunSnapshot& snapshot,
                           const std::string& base, const ShardPlan& plan);

/// Load shard 0 of `base` to learn the shard count, then load and merge
/// every shard file. Throws on missing shards or header mismatch.
[[nodiscard]] RunSnapshot load_sharded_snapshot(const std::string& base);

/// Ties snapshots into a running pipeline via its hooks:
///  * after every `every_rounds`-th EMS round, captures the pipeline and
///    atomically rewrites `path` (and keeps the snapshot in memory);
///  * when a residence exits a crash window
///    (PipelineConfig::robustness.failures), warm-restarts it from the
///    last snapshot — the home's in-process learning state since that
///    snapshot is lost, exactly like a real process crash.
/// Must outlive all pipeline training calls; the destructor uninstalls
/// the hooks.
class SnapshotManager {
 public:
  struct Options {
    /// Snapshot file; empty keeps snapshots in memory only.
    std::string path;
    /// Save cadence in EMS rounds (0 disables periodic saves; saves can
    /// still be forced via save_now()).
    std::uint64_t every_rounds = 1;
    /// Minute range of the upcoming train_ems() call, used to stamp
    /// train_cursor_minutes into periodic saves.
    std::uint64_t train_begin_minute = 0;
    std::uint64_t train_end_minute = 0;
    /// >= 2 writes one file per shard (shard_snapshot_path(path, k))
    /// instead of a single monolithic file; 0/1 keeps the legacy
    /// whole-run file. The in-memory snapshot stays whole-run either
    /// way, so per-home warm restarts are unchanged.
    std::size_t shards = 0;
  };

  SnapshotManager(core::EmsPipeline& pipeline, Options options);
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;
  ~SnapshotManager();

  /// Capture + save immediately (refreshes the in-memory snapshot too).
  void save_now();

  /// Last captured snapshot; nullptr before the first save.
  [[nodiscard]] const RunSnapshot* last() const noexcept {
    return last_ ? &*last_ : nullptr;
  }
  [[nodiscard]] std::uint64_t saves() const noexcept { return saves_; }
  [[nodiscard]] std::uint64_t home_restarts() const noexcept {
    return home_restarts_;
  }

 private:
  [[nodiscard]] std::uint64_t cursor_for_rounds(std::uint64_t rounds) const;
  /// Write last_ to disk — whole-run or per-shard per options_.shards.
  void persist() const;

  core::EmsPipeline& pipeline_;
  Options options_;
  /// ems_rounds_done() at install time — rounds run before this
  /// train_ems() window don't advance the cursor.
  std::uint64_t baseline_rounds_ = 0;
  std::optional<RunSnapshot> last_;
  std::uint64_t saves_ = 0;
  std::uint64_t home_restarts_ = 0;
};

}  // namespace pfdrl::sim
