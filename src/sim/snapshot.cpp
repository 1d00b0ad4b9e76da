#include "sim/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/method.hpp"
#include "fl/baselines.hpp"
#include "fl/dfl.hpp"
#include "forecast/forecaster.hpp"
#include "net/fault.hpp"
#include "util/records.hpp"

namespace pfdrl::sim {

namespace {

/// Snapshot payload layout version, independent of the record-stream
/// framing version (util::records::kVersion covers the framing; this
/// covers what the payloads mean). A snapshot resumes under the build
/// that wrote it: the reader accepts exactly this version and rejects
/// every other one (docs/persistence.md).
constexpr std::uint32_t kSnapshotVersion = 6;

// --- Little-endian payload encoding -----------------------------------
// All multi-byte fields are little-endian. The reader bounds-checks
// every length prefix against the remaining bytes BEFORE allocating or
// advancing, so hostile input ends in a clean throw, never an OOB read
// or a pathological allocation.

class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) {
    std::uint64_t raw;
    std::memcpy(&raw, &v, sizeof raw);
    u64(raw);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  void rng(const util::RngState& s) {
    for (std::uint64_t word : s.s) u64(word);
    f64(s.cached_normal);
    u8(s.has_cached_normal ? 1 : 0);
    u64(s.seed);
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : rest_(bytes) {}

  std::uint8_t u8() {
    need(1);
    const std::uint8_t v = rest_[0];
    rest_ = rest_.subspan(1);
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{rest_[i]} << (8 * i);
    rest_ = rest_.subspan(4);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{rest_[i]} << (8 * i);
    rest_ = rest_.subspan(8);
    return v;
  }
  double f64() {
    const std::uint64_t raw = u64();
    double v;
    std::memcpy(&v, &raw, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(rest_.data()),
                  static_cast<std::size_t>(n));
    rest_ = rest_.subspan(static_cast<std::size_t>(n));
    return s;
  }
  std::vector<double> f64_vec() {
    const std::uint64_t n = u64();
    // Compare against remaining/8 (not n*8, which could overflow) before
    // reserving anything.
    if (n > rest_.size() / 8) {
      throw std::runtime_error("snapshot: truncated record");
    }
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }
  util::RngState rng() {
    util::RngState s;
    for (auto& word : s.s) word = u64();
    s.cached_normal = f64();
    s.has_cached_normal = u8() != 0;
    s.seed = u64();
    return s;
  }
  void expect_done() const {
    if (!rest_.empty()) {
      throw std::runtime_error("snapshot: trailing bytes in record");
    }
  }

 private:
  void need(std::uint64_t n) const {
    if (n > rest_.size()) {
      throw std::runtime_error("snapshot: truncated record");
    }
  }
  std::span<const std::uint8_t> rest_;
};

void write_bus(ByteWriter& w, const BusSnapshot& bus) {
  w.u8(bus.present ? 1 : 0);
  w.u64(bus.stats.messages_sent);
  w.u64(bus.stats.messages_delivered);
  w.u64(bus.stats.messages_dropped);
  w.u64(bus.stats.messages_partition_dropped);
  w.u64(bus.stats.messages_duplicated);
  w.u64(bus.stats.messages_delayed);
  w.u64(bus.stats.bytes_on_wire);
  w.f64(bus.stats.simulated_transfer_seconds);
  w.f64(bus.stats.simulated_fault_delay_seconds);
  w.u64(bus.stats.logical_bytes);
}

BusSnapshot read_bus(ByteReader& r) {
  BusSnapshot bus;
  bus.present = r.u8() != 0;
  bus.stats.messages_sent = r.u64();
  bus.stats.messages_delivered = r.u64();
  bus.stats.messages_dropped = r.u64();
  bus.stats.messages_partition_dropped = r.u64();
  bus.stats.messages_duplicated = r.u64();
  bus.stats.messages_delayed = r.u64();
  bus.stats.bytes_on_wire = r.u64();
  bus.stats.simulated_transfer_seconds = r.f64();
  bus.stats.simulated_fault_delay_seconds = r.f64();
  bus.stats.logical_bytes = r.u64();
  return bus;
}

std::vector<std::uint8_t> encode_agent(const AgentSnapshot& a) {
  ByteWriter w;
  w.u64(a.home);
  w.u64(a.dev);
  w.f64_vec(a.state.online_params);
  w.f64_vec(a.state.target_params);
  w.u64(static_cast<std::uint64_t>(a.state.optimizer.t));
  w.f64_vec(a.state.optimizer.m);
  w.f64_vec(a.state.optimizer.v);
  w.u64(a.state.replay.entries.size());
  for (const rl::Transition& t : a.state.replay.entries) {
    w.f64_vec(t.state);
    w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(t.action)));
    w.f64(t.reward);
    w.f64_vec(t.next_state);
    w.u8(t.terminal ? 1 : 0);
  }
  w.u64(a.state.replay.next);
  w.u64(a.state.replay.total_pushed);
  w.rng(a.state.rng);
  w.u64(a.state.act_steps);
  w.u64(a.state.learn_steps);
  return w.take();
}

AgentSnapshot decode_agent(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  AgentSnapshot a;
  a.home = r.u64();
  a.dev = r.u64();
  a.state.online_params = r.f64_vec();
  a.state.target_params = r.f64_vec();
  a.state.optimizer.t = static_cast<long>(r.u64());
  a.state.optimizer.m = r.f64_vec();
  a.state.optimizer.v = r.f64_vec();
  const std::uint64_t n_entries = r.u64();
  a.state.replay.entries.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n_entries, 1 << 20)));
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    rl::Transition t;
    t.state = r.f64_vec();
    t.action = static_cast<int>(static_cast<std::int64_t>(r.u64()));
    t.reward = r.f64();
    t.next_state = r.f64_vec();
    t.terminal = r.u8() != 0;
    a.state.replay.entries.push_back(std::move(t));
  }
  a.state.replay.next = static_cast<std::size_t>(r.u64());
  a.state.replay.total_pushed = r.u64();
  a.state.rng = r.rng();
  a.state.act_steps = r.u64();
  a.state.learn_steps = r.u64();
  r.expect_done();
  return a;
}

std::vector<std::uint8_t> encode_forecaster(const ForecasterSnapshot& f) {
  ByteWriter w;
  w.u64(f.home);
  w.u64(f.dev);
  w.f64_vec(f.parameters);
  w.f64_vec(f.train_state);
  return w.take();
}

ForecasterSnapshot decode_forecaster(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  ForecasterSnapshot f;
  f.home = r.u64();
  f.dev = r.u64();
  f.parameters = r.f64_vec();
  f.train_state = r.f64_vec();
  r.expect_done();
  return f;
}

}  // namespace

// --- Capture / restore ------------------------------------------------

RunSnapshot capture_run(const core::EmsPipeline& pipeline,
                        std::uint64_t train_cursor_minutes) {
  const core::PipelineConfig& cfg = pipeline.config();
  RunSnapshot snap;
  snap.seed = cfg.seed;
  snap.method = static_cast<std::uint32_t>(cfg.method);
  snap.forecast_method = static_cast<std::uint32_t>(cfg.forecast_method);
  snap.num_homes = pipeline.num_homes();
  snap.ems_rounds_done = pipeline.ems_rounds_done();
  snap.train_cursor_minutes = train_cursor_minutes;

  for (std::size_t h = 0; h < pipeline.num_homes(); ++h) {
    for (std::size_t d = 0; d < pipeline.num_devices(h); ++d) {
      const rl::DqnAgent* agent = pipeline.agent_ptr(h, d);
      if (!agent) continue;
      snap.agents.push_back({h, d, agent->capture_state()});
    }
  }

  if (const fl::CloudTrainer* cloud = pipeline.cloud_trainer()) {
    snap.cloud_backend = true;
    snap.forecast_rounds_done = cloud->rounds_done();
    snap.raw_bytes_uploaded = cloud->raw_bytes_uploaded();
    for (data::DeviceType type : cloud->model_types()) {
      const forecast::Forecaster& model = cloud->model_for_type(type);
      const auto params = model.parameters();
      snap.forecasters.push_back({static_cast<std::uint64_t>(type),
                                  0,
                                  {params.begin(), params.end()},
                                  model.train_state()});
    }
  } else if (const fl::DflTrainer* dfl = pipeline.dfl_trainer()) {
    snap.forecast_rounds_done = dfl->rounds_done();
    for (std::size_t h = 0; h < pipeline.num_homes(); ++h) {
      for (std::size_t d = 0; d < pipeline.num_devices(h); ++d) {
        const forecast::Forecaster& model = dfl->forecaster(h, d);
        const auto params = model.parameters();
        snap.forecasters.push_back(
            {h, d, {params.begin(), params.end()}, model.train_state()});
      }
    }
    snap.forecast_bus.present = true;
    snap.forecast_bus.stats = dfl->bus().stats();
  }

  if (const core::DrlFederation* fed = pipeline.drl_federation()) {
    snap.drl_bus.present = true;
    snap.drl_bus.stats = fed->bus().stats();
  }

  snap.metrics = pipeline.metrics().capture_state();
  return snap;
}

namespace {

void check_compatible(const core::EmsPipeline& pipeline,
                      const RunSnapshot& snap) {
  const core::PipelineConfig& cfg = pipeline.config();
  if (snap.seed != cfg.seed ||
      snap.method != static_cast<std::uint32_t>(cfg.method) ||
      snap.forecast_method !=
          static_cast<std::uint32_t>(cfg.forecast_method) ||
      snap.num_homes != pipeline.num_homes()) {
    throw std::runtime_error(
        "snapshot: incompatible with this pipeline "
        "(seed/method/forecast-method/home-count mismatch)");
  }
}

void restore_agent(core::EmsPipeline& pipeline, const AgentSnapshot& a) {
  rl::DqnAgent* agent = pipeline.mutable_agent(
      static_cast<std::size_t>(a.home), static_cast<std::size_t>(a.dev));
  if (!agent) {
    throw std::runtime_error("snapshot: agent slot is a protected device");
  }
  try {
    agent->restore_state(a.state);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("snapshot: ") + e.what());
  }
}

void restore_forecaster_into(forecast::Forecaster& model,
                             const ForecasterSnapshot& f) {
  if (model.parameters().size() != f.parameters.size()) {
    throw std::runtime_error("snapshot: forecaster shape mismatch");
  }
  model.set_parameters(f.parameters);
  try {
    model.set_train_state(f.train_state);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("snapshot: ") + e.what());
  }
}

}  // namespace

void restore_run(core::EmsPipeline& pipeline, const RunSnapshot& snap) {
  check_compatible(pipeline, snap);
  if (snap.cloud_backend != (pipeline.cloud_trainer() != nullptr)) {
    throw std::runtime_error("snapshot: forecast backend mismatch");
  }

  pipeline.set_ems_rounds_done(snap.ems_rounds_done);
  for (const AgentSnapshot& a : snap.agents) restore_agent(pipeline, a);

  if (fl::CloudTrainer* cloud = pipeline.cloud_trainer()) {
    cloud->set_rounds_done(snap.forecast_rounds_done);
    cloud->set_raw_bytes_uploaded(snap.raw_bytes_uploaded);
    for (const ForecasterSnapshot& f : snap.forecasters) {
      restore_forecaster_into(
          cloud->mutable_model_for_type(static_cast<data::DeviceType>(f.home)),
          f);
    }
  } else if (fl::DflTrainer* dfl = pipeline.dfl_trainer()) {
    dfl->set_rounds_done(snap.forecast_rounds_done);
    for (const ForecasterSnapshot& f : snap.forecasters) {
      restore_forecaster_into(
          dfl->mutable_forecaster(static_cast<std::size_t>(f.home),
                                  static_cast<std::size_t>(f.dev)),
          f);
    }
    if (snap.forecast_bus.present) {
      dfl->bus().restore_stats(snap.forecast_bus.stats);
    }
  }

  if (core::DrlFederation* fed = pipeline.drl_federation();
      fed && snap.drl_bus.present) {
    fed->bus().restore_stats(snap.drl_bus.stats);
  }

  pipeline.metrics().restore_state(snap.metrics);
  pipeline.invalidate_forecast_cache();
}

void restore_home(core::EmsPipeline& pipeline, const RunSnapshot& snap,
                  std::size_t home) {
  check_compatible(pipeline, snap);
  for (const AgentSnapshot& a : snap.agents) {
    if (a.home == home) restore_agent(pipeline, a);
  }
  // Per-home forecasters only: the Cloud backend's global models live on
  // the server, which did not crash with the home.
  if (fl::DflTrainer* dfl = pipeline.dfl_trainer()) {
    for (const ForecasterSnapshot& f : snap.forecasters) {
      if (f.home != home) continue;
      restore_forecaster_into(
          dfl->mutable_forecaster(static_cast<std::size_t>(f.home),
                                  static_cast<std::size_t>(f.dev)),
          f);
    }
  }
  pipeline.invalidate_forecast_cache();
}

// --- Serialization ----------------------------------------------------

std::vector<std::uint8_t> serialize_snapshot(const RunSnapshot& snap) {
  util::RecordWriter writer;

  {  // Record 0: header.
    ByteWriter w;
    w.u32(kSnapshotVersion);
    w.u64(snap.seed);
    w.u32(snap.method);
    w.u32(snap.forecast_method);
    w.u64(snap.num_homes);
    w.u64(snap.ems_rounds_done);
    w.u64(snap.forecast_rounds_done);
    w.u64(snap.raw_bytes_uploaded);
    w.u64(snap.train_cursor_minutes);
    w.u8(snap.cloud_backend ? 1 : 0);
    w.u64(snap.agents.size());
    w.u64(snap.forecasters.size());
    w.u64(snap.shard_index);
    w.u64(snap.shard_count);
    writer.append(w.take());
  }
  {  // Record 1: metrics.
    ByteWriter w;
    w.u64(snap.metrics.counters.size());
    for (const auto& [name, value] : snap.metrics.counters) {
      w.str(name);
      w.u64(value);
    }
    w.u64(snap.metrics.gauges.size());
    for (const auto& [name, value] : snap.metrics.gauges) {
      w.str(name);
      w.f64(value);
    }
    w.u64(snap.metrics.series.size());
    for (const auto& [name, values] : snap.metrics.series) {
      w.str(name);
      w.f64_vec(values);
    }
    writer.append(w.take());
  }
  {  // Record 2: bus states.
    ByteWriter w;
    write_bus(w, snap.forecast_bus);
    write_bus(w, snap.drl_bus);
    writer.append(w.take());
  }
  for (const AgentSnapshot& a : snap.agents) writer.append(encode_agent(a));
  for (const ForecasterSnapshot& f : snap.forecasters) {
    writer.append(encode_forecaster(f));
  }
  return writer.bytes();
}

RunSnapshot deserialize_snapshot(std::span<const std::uint8_t> bytes) {
  util::RecordReader reader(bytes);
  const auto next_record = [&reader] {
    auto rec = reader.next();
    if (!rec) throw std::runtime_error("snapshot: missing record");
    return *rec;
  };

  RunSnapshot snap;
  std::uint64_t n_agents = 0;
  std::uint64_t n_forecasters = 0;
  {
    ByteReader r(next_record());
    if (r.u32() != kSnapshotVersion) {
      throw std::runtime_error("snapshot: unsupported snapshot version");
    }
    snap.seed = r.u64();
    snap.method = r.u32();
    snap.forecast_method = r.u32();
    snap.num_homes = r.u64();
    snap.ems_rounds_done = r.u64();
    snap.forecast_rounds_done = r.u64();
    snap.raw_bytes_uploaded = r.u64();
    snap.train_cursor_minutes = r.u64();
    snap.cloud_backend = r.u8() != 0;
    n_agents = r.u64();
    n_forecasters = r.u64();
    snap.shard_index = r.u64();
    snap.shard_count = r.u64();
    if (snap.shard_count == 0 || snap.shard_index >= snap.shard_count) {
      throw std::runtime_error("snapshot: invalid shard identity");
    }
    r.expect_done();
  }
  {
    ByteReader r(next_record());
    const std::uint64_t n_counters = r.u64();
    for (std::uint64_t i = 0; i < n_counters; ++i) {
      std::string name = r.str();
      snap.metrics.counters[std::move(name)] = r.u64();
    }
    const std::uint64_t n_gauges = r.u64();
    for (std::uint64_t i = 0; i < n_gauges; ++i) {
      std::string name = r.str();
      snap.metrics.gauges[std::move(name)] = r.f64();
    }
    const std::uint64_t n_series = r.u64();
    for (std::uint64_t i = 0; i < n_series; ++i) {
      std::string name = r.str();
      snap.metrics.series[std::move(name)] = r.f64_vec();
    }
    r.expect_done();
  }
  {
    ByteReader r(next_record());
    snap.forecast_bus = read_bus(r);
    snap.drl_bus = read_bus(r);
    r.expect_done();
  }
  for (std::uint64_t i = 0; i < n_agents; ++i) {
    snap.agents.push_back(decode_agent(next_record()));
  }
  for (std::uint64_t i = 0; i < n_forecasters; ++i) {
    snap.forecasters.push_back(decode_forecaster(next_record()));
  }
  if (reader.next().has_value()) {
    throw std::runtime_error("snapshot: trailing records");
  }
  return snap;
}

void save_snapshot(const RunSnapshot& snap, const std::string& path) {
  util::atomic_write_file(path, serialize_snapshot(snap));
}

RunSnapshot load_snapshot(const std::string& path) {
  const std::vector<std::uint8_t> bytes = util::read_file(path);
  return deserialize_snapshot(bytes);
}

// --- Per-shard snapshots ----------------------------------------------

std::string shard_snapshot_path(const std::string& base, std::size_t shard) {
  return base + ".shard" + std::to_string(shard);
}

namespace {

/// Header scalars every shard part repeats (so any single file is enough
/// to identify the run it belongs to and rebuild the ShardPlan).
void copy_header_scalars(RunSnapshot& dst, const RunSnapshot& src) {
  dst.seed = src.seed;
  dst.method = src.method;
  dst.forecast_method = src.forecast_method;
  dst.num_homes = src.num_homes;
  dst.ems_rounds_done = src.ems_rounds_done;
  dst.forecast_rounds_done = src.forecast_rounds_done;
  dst.train_cursor_minutes = src.train_cursor_minutes;
  dst.cloud_backend = src.cloud_backend;
}

}  // namespace

std::vector<RunSnapshot> split_shards(const RunSnapshot& snapshot,
                                      const ShardPlan& plan) {
  if (snapshot.shard_count != 1) {
    throw std::invalid_argument("split_shards: input is already a shard part");
  }
  if (plan.num_homes != snapshot.num_homes) {
    throw std::invalid_argument("split_shards: plan/home-count mismatch");
  }
  std::vector<RunSnapshot> parts(plan.shards);
  for (std::size_t k = 0; k < plan.shards; ++k) {
    copy_header_scalars(parts[k], snapshot);
    parts[k].shard_index = k;
    parts[k].shard_count = plan.shards;
  }
  // Global (non-per-home) state rides shard 0 only, so merging never
  // double-counts and the other shard files stay purely per-home.
  parts[0].raw_bytes_uploaded = snapshot.raw_bytes_uploaded;
  parts[0].forecast_bus = snapshot.forecast_bus;
  parts[0].drl_bus = snapshot.drl_bus;
  parts[0].metrics = snapshot.metrics;
  for (const AgentSnapshot& a : snapshot.agents) {
    parts[plan.shard_of(static_cast<std::size_t>(a.home))].agents.push_back(a);
  }
  for (const ForecasterSnapshot& f : snapshot.forecasters) {
    // Cloud-backend forecasters are global per-device-type models keyed
    // by type, not by home — they live with the rest of the global state.
    const std::size_t k =
        snapshot.cloud_backend
            ? 0
            : plan.shard_of(static_cast<std::size_t>(f.home));
    parts[k].forecasters.push_back(f);
  }
  return parts;
}

RunSnapshot merge_shards(const std::vector<RunSnapshot>& parts) {
  if (parts.empty()) {
    throw std::invalid_argument("merge_shards: no parts");
  }
  const std::uint64_t count = parts.front().shard_count;
  if (count != parts.size()) {
    throw std::invalid_argument("merge_shards: wrong number of parts");
  }
  std::vector<const RunSnapshot*> ordered(parts.size(), nullptr);
  for (const RunSnapshot& p : parts) {
    if (p.shard_count != count || p.shard_index >= count ||
        p.seed != parts.front().seed ||
        p.num_homes != parts.front().num_homes ||
        p.ems_rounds_done != parts.front().ems_rounds_done) {
      throw std::invalid_argument("merge_shards: inconsistent shard headers");
    }
    if (ordered[static_cast<std::size_t>(p.shard_index)] != nullptr) {
      throw std::invalid_argument("merge_shards: duplicate shard index");
    }
    ordered[static_cast<std::size_t>(p.shard_index)] = &p;
  }
  RunSnapshot merged;
  copy_header_scalars(merged, *ordered[0]);
  merged.raw_bytes_uploaded = ordered[0]->raw_bytes_uploaded;
  merged.forecast_bus = ordered[0]->forecast_bus;
  merged.drl_bus = ordered[0]->drl_bus;
  merged.metrics = ordered[0]->metrics;
  // Ascending shard order = ascending home order = the order capture_run
  // itself emits, so a split → merge round trip is byte-identical.
  for (const RunSnapshot* p : ordered) {
    merged.agents.insert(merged.agents.end(), p->agents.begin(),
                         p->agents.end());
    merged.forecasters.insert(merged.forecasters.end(),
                              p->forecasters.begin(), p->forecasters.end());
  }
  return merged;
}

void save_sharded_snapshot(const RunSnapshot& snapshot,
                           const std::string& base, const ShardPlan& plan) {
  const std::vector<RunSnapshot> parts = split_shards(snapshot, plan);
  for (std::size_t k = 0; k < parts.size(); ++k) {
    save_snapshot(parts[k], shard_snapshot_path(base, k));
  }
}

RunSnapshot load_sharded_snapshot(const std::string& base) {
  RunSnapshot first = load_snapshot(shard_snapshot_path(base, 0));
  const auto count = static_cast<std::size_t>(first.shard_count);
  std::vector<RunSnapshot> parts;
  parts.reserve(count);
  parts.push_back(std::move(first));
  for (std::size_t k = 1; k < count; ++k) {
    parts.push_back(load_snapshot(shard_snapshot_path(base, k)));
  }
  return merge_shards(parts);
}

// --- SnapshotManager --------------------------------------------------

namespace {

/// A home that was down during the just-completed round could not have
/// written a snapshot of its own: freeze its entries at the previous
/// snapshot's values, so a later warm restart reloads the last state the
/// home actually persisted before it died — not state "recorded" while
/// it was dark.
void freeze_crashed_homes(RunSnapshot& fresh, const RunSnapshot& prev,
                          const net::FailureSchedule& failures,
                          std::uint64_t completed_round) {
  if (failures.crashes.empty()) return;
  for (AgentSnapshot& a : fresh.agents) {
    if (!failures.crashed(static_cast<net::AgentId>(a.home), completed_round)) {
      continue;
    }
    for (const AgentSnapshot& p : prev.agents) {
      if (p.home == a.home && p.dev == a.dev) {
        a.state = p.state;
        break;
      }
    }
  }
  if (fresh.cloud_backend) return;  // global models live on the server
  for (ForecasterSnapshot& f : fresh.forecasters) {
    if (!failures.crashed(static_cast<net::AgentId>(f.home), completed_round)) {
      continue;
    }
    for (const ForecasterSnapshot& p : prev.forecasters) {
      if (p.home == f.home && p.dev == f.dev) {
        f.parameters = p.parameters;
        f.train_state = p.train_state;
        break;
      }
    }
  }
}

}  // namespace

SnapshotManager::SnapshotManager(core::EmsPipeline& pipeline, Options options)
    : pipeline_(pipeline),
      options_(std::move(options)),
      baseline_rounds_(pipeline.ems_rounds_done()) {
  // The cadence is passed through so the round engine only quiesces at
  // rounds where this hook would actually save. The hook keeps its own
  // gate: segments count from the train_ems cursor, not from the
  // manager's baseline.
  pipeline_.set_on_round_end(
      [this](std::uint64_t rounds_done) {
        if (options_.every_rounds == 0) return;
        if ((rounds_done - baseline_rounds_) % options_.every_rounds != 0) {
          return;
        }
        RunSnapshot fresh =
            capture_run(pipeline_, cursor_for_rounds(rounds_done));
        if (last_) {
          freeze_crashed_homes(fresh, *last_,
                               pipeline_.config().robustness.failures,
                               rounds_done - 1);
        }
        last_ = std::move(fresh);
        persist();
        ++saves_;
      },
      options_.every_rounds);
  pipeline_.set_on_home_restart([this](std::size_t home) {
    // No snapshot yet → nothing durable to reload; the home keeps its
    // state (degenerates to the original uplink-loss model).
    if (!last_) return;
    restore_home(pipeline_, *last_, home);
    ++home_restarts_;
  });
}

SnapshotManager::~SnapshotManager() {
  pipeline_.set_on_round_end(nullptr);
  pipeline_.set_on_home_restart(nullptr);
}

void SnapshotManager::save_now() {
  last_ = capture_run(pipeline_,
                      cursor_for_rounds(pipeline_.ems_rounds_done()));
  persist();
  ++saves_;
}

void SnapshotManager::persist() const {
  if (options_.path.empty() || !last_) return;
  if (options_.shards >= 2) {
    save_sharded_snapshot(
        *last_, options_.path,
        ShardPlan::make(pipeline_.num_homes(), options_.shards));
  } else {
    save_snapshot(*last_, options_.path);
  }
}

std::uint64_t SnapshotManager::cursor_for_rounds(
    std::uint64_t rounds) const {
  const auto round_minutes = static_cast<std::uint64_t>(
      pipeline_.config().gamma_hours * 60.0);
  const std::uint64_t advanced =
      (rounds - baseline_rounds_) * std::max<std::uint64_t>(1, round_minutes);
  const std::uint64_t cursor = options_.train_begin_minute + advanced;
  return options_.train_end_minute > 0
             ? std::min(cursor, options_.train_end_minute)
             : cursor;
}

}  // namespace pfdrl::sim
