#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "nn/fused.hpp"
#include "nn/kernels.hpp"
#include "nn/workspace.hpp"

namespace pfdrl::obs {

namespace {

void atomic_update_min(std::atomic<double>& slot, double value) noexcept {
  double seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void atomic_update_max(std::atomic<double>& slot, double value) noexcept {
  double seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& slot, double delta) noexcept {
  double seen = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(seen, seen + delta,
                                     std::memory_order_relaxed)) {
  }
}

/// JSON number formatting: finite doubles round-trip via %.17g; the
/// sentinel infinities from an empty histogram serialize as null.
void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
}

std::string csv_double(double v) {
  if (!std::isfinite(v)) return "nan";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Gauge::update_max(double value) noexcept {
  atomic_update_max(value_, value);
}

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds_(std::move(bucket_bounds)),
      counts_(bounds_.size()),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: no buckets");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds not sorted");
  }
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  if (it == bounds_.end()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_update_min(min_, value);
  atomic_update_max(max_, value);
}

double Histogram::min() const noexcept {
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> Histogram::time_buckets() {
  std::vector<double> b;
  double v = 1e-6;
  for (int i = 0; i < 28; ++i) {  // 1 µs .. ~134 s
    b.push_back(v);
    v *= 2.0;
  }
  return b;
}

std::vector<double> Histogram::count_buckets() {
  std::vector<double> b;
  double v = 1.0;
  for (int i = 0; i < 16; ++i) {  // 1 .. 32768
    b.push_back(v);
    v *= 2.0;
  }
  return b;
}

void Series::append(double value) {
  std::lock_guard lock(mutex_);
  values_.push_back(value);
}

std::vector<double> Series::values() const {
  std::lock_guard lock(mutex_);
  return values_;
}

std::size_t Series::size() const {
  std::lock_guard lock(mutex_);
  return values_.size();
}

void Series::reset() {
  std::lock_guard lock(mutex_);
  values_.clear();
}

void Series::restore(std::vector<double> values) {
  std::lock_guard lock(mutex_);
  values_ = std::move(values);
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name) {
  // Callers hold mutex_.
  return entries_[std::string(name)];
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name);
  if (!e.counter) {
    if (e.gauge || e.histogram || e.series) {
      throw std::logic_error("metrics: '" + std::string(name) +
                             "' already registered as another kind");
    }
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name);
  if (!e.gauge) {
    if (e.counter || e.histogram || e.series) {
      throw std::logic_error("metrics: '" + std::string(name) +
                             "' already registered as another kind");
    }
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bucket_bounds) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name);
  if (!e.histogram) {
    if (e.counter || e.gauge || e.series) {
      throw std::logic_error("metrics: '" + std::string(name) +
                             "' already registered as another kind");
    }
    if (bucket_bounds.empty()) bucket_bounds = Histogram::time_buckets();
    e.histogram = std::make_unique<Histogram>(std::move(bucket_bounds));
  }
  return *e.histogram;
}

Series& MetricsRegistry::series(std::string_view name) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name);
  if (!e.series) {
    if (e.counter || e.gauge || e.histogram) {
      throw std::logic_error("metrics: '" + std::string(name) +
                             "' already registered as another kind");
    }
    e.series = std::make_unique<Series>();
  }
  return *e.series;
}

bool MetricsRegistry::contains(std::string_view name) const {
  std::lock_guard lock(mutex_);
  return entries_.find(name) != entries_.end();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, e] : entries_) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
    if (e.series) e.series->reset();
  }
}

MetricsSnapshot MetricsRegistry::capture_state() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, e] : entries_) {
    if (e.counter) snapshot.counters[name] = e.counter->value();
    if (e.gauge) snapshot.gauges[name] = e.gauge->value();
    if (e.series) snapshot.series[name] = e.series->values();
  }
  return snapshot;
}

void MetricsRegistry::restore_state(const MetricsSnapshot& snapshot) {
  // Goes through the public find-or-create accessors (each takes the
  // registry lock itself) so restoring into a fresh registry creates the
  // instruments and kind conflicts surface as the usual logic_error.
  for (const auto& [name, value] : snapshot.counters) counter(name).set(value);
  for (const auto& [name, value] : snapshot.gauges) gauge(name).set(value);
  for (const auto& [name, values] : snapshot.series) series(name).restore(values);
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\n";

  const auto emit_section = [&](const char* kind, auto&& has,
                                auto&& emit_value, bool last) {
    out += "  ";
    append_json_string(out, kind);
    out += ": {";
    bool first = true;
    for (const auto& [name, e] : entries_) {
      if (!has(e)) continue;
      out += first ? "\n    " : ",\n    ";
      first = false;
      append_json_string(out, name);
      out += ": ";
      emit_value(e);
    }
    out += first ? "}" : "\n  }";
    out += last ? "\n" : ",\n";
  };

  emit_section(
      "counters", [](const Entry& e) { return e.counter != nullptr; },
      [&](const Entry& e) { out += std::to_string(e.counter->value()); },
      false);
  emit_section(
      "gauges", [](const Entry& e) { return e.gauge != nullptr; },
      [&](const Entry& e) { append_json_double(out, e.gauge->value()); },
      false);
  emit_section(
      "histograms", [](const Entry& e) { return e.histogram != nullptr; },
      [&](const Entry& e) {
        const Histogram& h = *e.histogram;
        out += "{\"count\": " + std::to_string(h.count());
        out += ", \"sum\": ";
        append_json_double(out, h.sum());
        out += ", \"min\": ";
        append_json_double(out, h.min());
        out += ", \"max\": ";
        append_json_double(out, h.max());
        out += ", \"buckets\": [";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) out += ", ";
          out += "{\"le\": ";
          append_json_double(out, h.bounds()[i]);
          out += ", \"count\": " + std::to_string(h.bucket_count(i)) + "}";
        }
        out += "], \"overflow\": " + std::to_string(h.overflow_count()) + "}";
      },
      false);
  emit_section(
      "series", [](const Entry& e) { return e.series != nullptr; },
      [&](const Entry& e) {
        out += "[";
        const auto values = e.series->values();
        for (std::size_t i = 0; i < values.size(); ++i) {
          if (i > 0) out += ", ";
          append_json_double(out, values[i]);
        }
        out += "]";
      },
      true);

  out += "}\n";
  return out;
}

std::string MetricsRegistry::to_csv() const {
  std::lock_guard lock(mutex_);
  std::string out = "kind,name,field,value\n";
  for (const auto& [name, e] : entries_) {
    if (e.counter) {
      out += "counter," + name + ",value," +
             std::to_string(e.counter->value()) + "\n";
    } else if (e.gauge) {
      out += "gauge," + name + ",value," + csv_double(e.gauge->value()) + "\n";
    } else if (e.histogram) {
      const Histogram& h = *e.histogram;
      out += "histogram," + name + ",count," + std::to_string(h.count()) + "\n";
      out += "histogram," + name + ",sum," + csv_double(h.sum()) + "\n";
      out += "histogram," + name + ",min," + csv_double(h.min()) + "\n";
      out += "histogram," + name + ",max," + csv_double(h.max()) + "\n";
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        out += "histogram," + name + ",le=" + csv_double(h.bounds()[i]) + "," +
               std::to_string(h.bucket_count(i)) + "\n";
      }
      out += "histogram," + name + ",overflow," +
             std::to_string(h.overflow_count()) + "\n";
    } else if (e.series) {
      const auto values = e.series->values();
      for (std::size_t i = 0; i < values.size(); ++i) {
        out += "series," + name + "," + std::to_string(i) + "," +
               csv_double(values[i]) + "\n";
      }
    }
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("metrics: cannot write " + path);
  out << to_json();
}

void MetricsRegistry::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("metrics: cannot write " + path);
  out << to_csv();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

double SpanTimer::stop() {
  if (sink_ == nullptr) return 0.0;
  const double elapsed = watch_.elapsed_seconds();
  sink_->observe(elapsed);
  if (trajectory_ != nullptr) trajectory_->append(elapsed);
  sink_ = nullptr;
  trajectory_ = nullptr;
  return elapsed;
}

void record_bus_stats(MetricsRegistry& registry, std::string_view prefix,
                      const net::BusStats& stats) {
  const std::string p(prefix);
  registry.counter(p + ".messages_sent").set(stats.messages_sent);
  registry.counter(p + ".messages_delivered").set(stats.messages_delivered);
  registry.counter(p + ".messages_dropped").set(stats.messages_dropped);
  registry.counter(p + ".messages_partition_dropped")
      .set(stats.messages_partition_dropped);
  registry.counter(p + ".messages_duplicated").set(stats.messages_duplicated);
  registry.counter(p + ".messages_delayed").set(stats.messages_delayed);
  registry.counter(p + ".bytes_on_wire").set(stats.bytes_on_wire);
  registry.gauge(p + ".simulated_transfer_seconds")
      .set(stats.simulated_transfer_seconds);
  registry.gauge(p + ".simulated_fault_delay_seconds")
      .set(stats.simulated_fault_delay_seconds);
}

void record_shard_router_stats(MetricsRegistry& registry,
                               std::string_view prefix,
                               const net::ShardRouterStats& stats) {
  const std::string p(prefix);
  registry.counter(p + ".shard_batches").set(stats.batches_flushed);
  registry.counter(p + ".shard_batched_msgs").set(stats.messages_batched);
  registry.counter(p + ".shard_batched_bytes").set(stats.batched_bytes);
  registry.counter(p + ".shard_batched_wire_bytes")
      .set(stats.batched_wire_bytes);
  registry.gauge(p + ".shard_flushes")
      .set(static_cast<double>(stats.flushes));
  registry.gauge(p + ".shard_max_queue_depth")
      .set(static_cast<double>(stats.max_batch_depth));
}

void record_shard_timing(MetricsRegistry& registry, std::string_view prefix,
                         const util::ShardTiming& timing) {
  if (timing.shard_seconds.empty()) return;
  const std::string p(prefix);
  registry.gauge(p + ".imbalance").set(timing.max_over_mean());
  Histogram& hist = registry.histogram(p + ".seconds",
                                       Histogram::time_buckets());
  for (double s : timing.shard_seconds) hist.observe(s);
}

void record_thread_pool_stats(MetricsRegistry& registry,
                              std::string_view prefix,
                              const util::ThreadPoolStats& stats) {
  const std::string p(prefix);
  registry.counter(p + ".tasks_executed").set(stats.tasks_executed);
  registry.counter(p + ".tasks_stolen").set(stats.tasks_stolen);
  registry.counter(p + ".tasks_inline").set(stats.tasks_inline);
  registry.counter(p + ".tasks_heap").set(stats.tasks_heap);
  registry.gauge(p + ".max_queue_depth")
      .set(static_cast<double>(stats.max_queue_depth));
}

void record_nn_workspace_stats(MetricsRegistry& registry) {
  registry.counter("nn.workspace_allocs").set(nn::Workspace::total_allocations());
  registry.gauge("nn.scratch_bytes")
      .set(static_cast<double>(nn::Workspace::total_bytes()));
}

void record_nn_kernel_stats(MetricsRegistry& registry) {
  registry.counter("nn.kernel_train_batches")
      .set(nn::kernels::total_train_batches());
  registry.gauge("nn.kernel_lanes")
      .set(static_cast<double>(nn::kernels::kLanes));
  registry.gauge("nn.kernel_vector_math")
      .set(nn::kernels::vector_math_active() ? 1.0 : 0.0);
}

void record_nn_fused_stats(MetricsRegistry& registry) {
  registry.counter("nn.fused_batches").set(nn::total_fused_batches());
  registry.counter("nn.fused_batch_rows").set(nn::total_fused_rows());
  registry.gauge("nn.fused_homes")
      .set(static_cast<double>(nn::max_fused_members()));
}

}  // namespace pfdrl::obs
