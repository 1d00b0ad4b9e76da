// Run-wide observability layer (metrics + lightweight tracing).
//
// A MetricsRegistry is a thread-safe bag of named instruments:
//   * Counter   — monotonically increasing uint64 (events, bytes);
//   * Gauge     — last-value double (epsilon, queue depth);
//   * Histogram — fixed-bucket distribution of doubles (round wall times,
//                 aggregation group sizes);
//   * Series    — append-only time series (per-round trajectories).
//
// Instruments are lock-free on the hot path (atomics; Series takes a
// mutex but is only appended once per round); the registry map itself is
// mutex-guarded and hands out references that stay valid for the
// registry's lifetime. Exporters emit a single JSON document or a flat
// CSV so every run — CLI, bench, test — can leave a machine-readable
// sidecar of what it actually did.
//
// Naming convention: `<module>.<what>[_<unit>]`, e.g. `ems.round_seconds`
// (see docs/observability.md for the full catalogue).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/bus.hpp"
#include "util/shard.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Overwrite with an externally accumulated total (used when folding a
  /// component's own cumulative stats — e.g. BusStats — into the
  /// registry; repeated folds must not double-count).
  void set(std::uint64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Raise to `value` if larger (high-water marks).
  void update_max(double value) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-layout histogram: bucket i counts observations <= bounds[i];
/// anything above the last bound lands in the overflow bucket. The
/// layout is frozen at construction so concurrent observes need no
/// coordination beyond per-bucket atomic increments.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bucket_bounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow_count() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  void reset() noexcept;

  /// Standard layouts. Wall-time buckets span 1 µs .. ~134 s (doubling);
  /// count buckets are 1, 2, 4, ... 2^15.
  static std::vector<double> time_buckets();
  static std::vector<double> count_buckets();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Append-only trajectory (one point per round). Mutex-guarded — intended
/// for round-granularity appends, not per-step hot paths.
class Series {
 public:
  void append(double value);
  [[nodiscard]] std::vector<double> values() const;
  [[nodiscard]] std::size_t size() const;
  void reset();
  /// Replace the trajectory wholesale (warm-restart persistence).
  void restore(std::vector<double> values);

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

/// Deterministic slice of a registry for warm-restart persistence:
/// counters, gauges and series — the instruments whose values a resumed
/// run must continue from. Histograms are deliberately excluded: they
/// hold wall-time distributions, which are not reproducible and restart
/// from empty on resume.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::vector<double>> series;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference stays valid for the
  /// registry's lifetime. Requesting an existing name as a different
  /// instrument kind throws std::logic_error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bucket_bounds` applies only on first creation (the layout is part
  /// of the instrument's identity); defaults to time_buckets().
  Histogram& histogram(std::string_view name,
                       std::vector<double> bucket_bounds = {});
  Series& series(std::string_view name);

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const;
  /// Zero every instrument (layouts and names survive).
  void reset();

  /// Snapshot / restore the deterministic instruments (counters, gauges,
  /// series; histograms excluded — see MetricsSnapshot). Restore
  /// find-or-creates each named instrument and overwrites its value;
  /// instruments absent from the snapshot are left untouched.
  [[nodiscard]] MetricsSnapshot capture_state() const;
  void restore_state(const MetricsSnapshot& snapshot);

  /// One JSON document: {"counters":{...},"gauges":{...},
  /// "histograms":{...},"series":{...}} with names sorted.
  [[nodiscard]] std::string to_json() const;
  /// Flat rows: kind,name,field,value.
  [[nodiscard]] std::string to_csv() const;
  void write_json(const std::string& path) const;
  void write_csv(const std::string& path) const;

  /// Process-wide default registry (what components fall back to when no
  /// explicit sink is injected).
  static MetricsRegistry& global();

 private:
  struct Entry {
    // Exactly one is set; kept as separate slots so references returned
    // to callers are stable and strongly typed.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<Series> series;
  };

  Entry& entry(std::string_view name);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// RAII span timer: records elapsed wall seconds into a histogram (and
/// optionally appends to a per-round series) when it goes out of scope.
class SpanTimer {
 public:
  explicit SpanTimer(Histogram& sink, Series* trajectory = nullptr) noexcept
      : sink_(&sink), trajectory_(trajectory) {}
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() { stop(); }

  /// Record now and disarm; returns the elapsed seconds recorded.
  double stop();

 private:
  Histogram* sink_;
  Series* trajectory_;
  util::Stopwatch watch_;
};

/// Fold a bus's cumulative BusStats into `<prefix>.messages_sent`,
/// `.messages_delivered`, `.messages_dropped`, `.bytes_on_wire` counters
/// and a `<prefix>.simulated_transfer_seconds` gauge. Idempotent (set,
/// not add) so it can run after every round.
void record_bus_stats(MetricsRegistry& registry, std::string_view prefix,
                      const net::BusStats& stats);

/// Fold a shard router's cumulative stats into `<prefix>.shard_batches`,
/// `.shard_batched_msgs`, `.shard_batched_bytes` counters and
/// `<prefix>.shard_flushes` / `.shard_max_queue_depth` gauges — the
/// batched cross-shard side of the record_bus_stats ledger (one batch
/// per shard pair per tick vs. one send per message). Idempotent (set,
/// not add) so it can run after every round.
void record_shard_router_stats(MetricsRegistry& registry,
                               std::string_view prefix,
                               const net::ShardRouterStats& stats);

/// Fold one sharded dispatch's per-shard wall-clock timings into a
/// `<prefix>.imbalance` gauge (max/mean shard seconds — 1.0 is perfectly
/// balanced) and a `<prefix>.seconds` histogram (one observation per
/// shard). No-op for an unsharded dispatch (empty timing).
void record_shard_timing(MetricsRegistry& registry, std::string_view prefix,
                         const util::ShardTiming& timing);

/// Fold a pool's cumulative counters into `<prefix>.tasks_executed`,
/// `.tasks_stolen` counters and a `<prefix>.max_queue_depth` gauge.
void record_thread_pool_stats(MetricsRegistry& registry,
                              std::string_view prefix,
                              const util::ThreadPoolStats& stats);

/// Fold the process-wide nn::Workspace telemetry into an
/// `nn.workspace_allocs` counter (heap acquisitions by all arenas since
/// process start — flat once the steady state is reached) and an
/// `nn.scratch_bytes` gauge (bytes currently held by live arenas).
/// Idempotent (set, not add) so it can run after every round.
void record_nn_workspace_stats(MetricsRegistry& registry);

/// Fold the process-wide nn::kernels telemetry into an
/// `nn.kernel_train_batches` counter (forecaster member train steps,
/// nn::lstm/gru/mlp_train_step, since process start) and an `nn.kernel_lanes`
/// gauge (the fixed accumulator-lane count of the strip-mined reduction
/// kernels — a build constant, recorded so dumps are self-describing).
/// Idempotent (set, not add) so it can run after every round.
void record_nn_kernel_stats(MetricsRegistry& registry);

/// Fold the process-wide group-batch telemetry (nn/fused.hpp) into an
/// `nn.fused_batches` counter (group batches of the lockstep schedules),
/// an `nn.fused_batch_rows` counter (cumulative member rows those batches
/// trained), and an `nn.fused_homes` gauge (high-water members per group
/// batch — 1 when every group held one member). Idempotent (set, not
/// add) so it can run after every round.
void record_nn_fused_stats(MetricsRegistry& registry);

}  // namespace pfdrl::obs
