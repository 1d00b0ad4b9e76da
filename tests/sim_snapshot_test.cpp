// Warm-restart persistence tests (sim/snapshot.hpp).
//
// The two headline properties:
//   * Crash-resume golden: snapshot a run mid-training, restore into a
//     freshly constructed pipeline, finish the run — the final state is
//     bitwise identical to the uninterrupted run (agents, forecasters,
//     bus accounting, deterministic metrics). Exercised under link drops,
//     whose stateless per-delivery draws need nothing restored.
//   * Warm restart under a crash window: with a SnapshotManager
//     installed, a residence exiting a crash window reloads its last
//     pre-crash snapshot — its in-process learning during the outage is
//     lost, exactly like a real process crash. Without the manager the
//     original uplink-loss model (state survives) is unchanged.
//
// Plus the hostile-input guarantees: truncations and bit flips anywhere
// in a serialized snapshot must end in a clean std::runtime_error, and
// restoring into an incompatible pipeline must throw, never silently
// mix two runs.
#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "data/trace.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/records.hpp"

namespace pfdrl {
namespace {

constexpr std::size_t kDay = data::kMinutesPerDay;
constexpr std::size_t kRoundMinutes = 240;  // gamma 4h -> 6 rounds/day

std::vector<data::HouseholdTrace> make_traces(std::uint64_t seed) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 3;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 4;
  sc.neighborhood.seed = seed;
  sc.trace.days = 2;
  sc.trace.seed = seed;
  return sim::Scenario::generate(sc).traces;
}

/// Small-but-complete PFDRL config: LR forecasters, genuine alpha split,
/// 4h DRL rounds, link drops on both buses.
core::PipelineConfig make_config(obs::MetricsRegistry& reg,
                                 std::uint64_t seed = 42) {
  auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, seed);
  cfg.forecast_method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  cfg.dqn.hidden = {12, 12};
  cfg.alpha = 2;
  cfg.gamma_hours = 4.0;
  cfg.fault.link.drop_probability = 0.15;
  cfg.metrics = &reg;
  return cfg;
}

void expect_agents_equal(const sim::RunSnapshot& a, const sim::RunSnapshot& b) {
  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    const auto& x = a.agents[i];
    const auto& y = b.agents[i];
    ASSERT_EQ(x.home, y.home);
    ASSERT_EQ(x.dev, y.dev);
    EXPECT_EQ(nn::parameter_digest(x.state.online_params),
              nn::parameter_digest(y.state.online_params))
        << "online params, home " << x.home << " dev " << x.dev;
    EXPECT_EQ(nn::parameter_digest(x.state.target_params),
              nn::parameter_digest(y.state.target_params))
        << "target params, home " << x.home << " dev " << x.dev;
    EXPECT_EQ(x.state.optimizer.t, y.state.optimizer.t);
    EXPECT_EQ(x.state.optimizer.m, y.state.optimizer.m);
    EXPECT_EQ(x.state.optimizer.v, y.state.optimizer.v);
    EXPECT_EQ(x.state.replay.total_pushed, y.state.replay.total_pushed);
    EXPECT_EQ(x.state.replay.next, y.state.replay.next);
    ASSERT_EQ(x.state.replay.entries.size(), y.state.replay.entries.size());
    EXPECT_EQ(x.state.rng.s, y.state.rng.s);
    EXPECT_EQ(x.state.rng.has_cached_normal, y.state.rng.has_cached_normal);
    EXPECT_EQ(x.state.act_steps, y.state.act_steps);
    EXPECT_EQ(x.state.learn_steps, y.state.learn_steps);
  }
}

void expect_runs_equal(const sim::RunSnapshot& a, const sim::RunSnapshot& b) {
  EXPECT_EQ(a.ems_rounds_done, b.ems_rounds_done);
  EXPECT_EQ(a.forecast_rounds_done, b.forecast_rounds_done);
  expect_agents_equal(a, b);
  ASSERT_EQ(a.forecasters.size(), b.forecasters.size());
  for (std::size_t i = 0; i < a.forecasters.size(); ++i) {
    EXPECT_EQ(nn::parameter_digest(a.forecasters[i].parameters),
              nn::parameter_digest(b.forecasters[i].parameters))
        << "forecaster " << i;
    EXPECT_EQ(a.forecasters[i].train_state, b.forecasters[i].train_state)
        << "forecaster " << i;
  }
  ASSERT_EQ(a.forecast_bus.present, b.forecast_bus.present);
  if (a.forecast_bus.present) {
    EXPECT_EQ(a.forecast_bus.stats.messages_sent,
              b.forecast_bus.stats.messages_sent);
    EXPECT_EQ(a.forecast_bus.stats.messages_dropped,
              b.forecast_bus.stats.messages_dropped);
    EXPECT_EQ(a.forecast_bus.stats.bytes_on_wire,
              b.forecast_bus.stats.bytes_on_wire);
    EXPECT_EQ(a.forecast_bus.stats.logical_bytes,
              b.forecast_bus.stats.logical_bytes);
  }
  ASSERT_EQ(a.drl_bus.present, b.drl_bus.present);
  if (a.drl_bus.present) {
    EXPECT_EQ(a.drl_bus.stats.messages_sent, b.drl_bus.stats.messages_sent);
    EXPECT_EQ(a.drl_bus.stats.messages_dropped,
              b.drl_bus.stats.messages_dropped);
    EXPECT_EQ(a.drl_bus.stats.bytes_on_wire, b.drl_bus.stats.bytes_on_wire);
    EXPECT_EQ(a.drl_bus.stats.logical_bytes, b.drl_bus.stats.logical_bytes);
  }
  // Deterministic instruments only — wall-time series are excluded.
  for (const char* key :
       {"ems.rounds", "ems.env_steps", "ems.replay_pushes",
        "ems.learn_calls"}) {
    const auto ia = a.metrics.counters.find(key);
    const auto ib = b.metrics.counters.find(key);
    ASSERT_NE(ia, a.metrics.counters.end()) << key;
    ASSERT_NE(ib, b.metrics.counters.end()) << key;
    EXPECT_EQ(ia->second, ib->second) << key;
  }
  const auto sa = a.metrics.series.find("ems.epsilon_series");
  const auto sb = b.metrics.series.find("ems.epsilon_series");
  ASSERT_NE(sa, a.metrics.series.end());
  ASSERT_NE(sb, b.metrics.series.end());
  EXPECT_EQ(sa->second, sb->second);
}

// The headline property: interrupt, serialize to disk, reload into a
// *fresh* pipeline, finish — bitwise identical to never stopping.
TEST(SimSnapshot, CrashResumeGoldenBitwise) {
  const auto traces = make_traces(42);

  // Uninterrupted reference run: 6 DRL rounds.
  obs::MetricsRegistry reg_a;
  core::EmsPipeline a(traces, make_config(reg_a));
  a.train_forecasters(0, kDay);
  a.train_ems(kDay, 2 * kDay);
  const sim::RunSnapshot final_a = sim::capture_run(a);

  // Interrupted run: 3 rounds, snapshot to disk, drop the process.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pfdrl_resume_test.pfrc")
          .string();
  {
    obs::MetricsRegistry reg_b;
    core::EmsPipeline b(traces, make_config(reg_b));
    b.train_forecasters(0, kDay);
    b.train_ems(kDay, kDay + 3 * kRoundMinutes);
    sim::save_snapshot(sim::capture_run(b, kDay + 3 * kRoundMinutes), path);
  }

  // Fresh pipeline, fresh registry: restore and finish the run.
  obs::MetricsRegistry reg_c;
  core::EmsPipeline c(traces, make_config(reg_c));
  const sim::RunSnapshot snap = sim::load_snapshot(path);
  EXPECT_EQ(snap.ems_rounds_done, 3u);
  EXPECT_EQ(snap.train_cursor_minutes, kDay + 3 * kRoundMinutes);
  sim::restore_run(c, snap);
  c.train_ems(kDay + 3 * kRoundMinutes, 2 * kDay);
  const sim::RunSnapshot final_c = sim::capture_run(c);

  EXPECT_EQ(final_a.ems_rounds_done, 6u);
  expect_runs_equal(final_a, final_c);

  // And the downstream numbers agree too, not just the raw state.
  EXPECT_EQ(a.forecast_accuracy(kDay, 2 * kDay),
            c.forecast_accuracy(kDay, 2 * kDay));
  const auto ra = a.evaluate(kDay, 2 * kDay);
  const auto rc = c.evaluate(kDay, 2 * kDay);
  ASSERT_EQ(ra.size(), rc.size());
  for (std::size_t h = 0; h < ra.size(); ++h) {
    EXPECT_EQ(ra[h].total_reward, rc[h].total_reward) << "home " << h;
    EXPECT_EQ(ra[h].standby_kwh, rc[h].standby_kwh) << "home " << h;
  }
  std::remove(path.c_str());
}

// Serialize -> deserialize round-trips every field bitwise.
TEST(SimSnapshot, SerializeDeserializeRoundTrip) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  p.train_ems(kDay, kDay + kRoundMinutes);

  const sim::RunSnapshot snap = sim::capture_run(p, kDay + kRoundMinutes);
  const auto bytes = sim::serialize_snapshot(snap);
  const sim::RunSnapshot back = sim::deserialize_snapshot(bytes);

  EXPECT_EQ(back.seed, snap.seed);
  EXPECT_EQ(back.method, snap.method);
  EXPECT_EQ(back.num_homes, snap.num_homes);
  EXPECT_EQ(back.train_cursor_minutes, snap.train_cursor_minutes);
  EXPECT_EQ(back.cloud_backend, snap.cloud_backend);
  expect_runs_equal(snap, back);
  // Exact (not digest) equality of one agent's full payload.
  ASSERT_FALSE(snap.agents.empty());
  EXPECT_EQ(back.agents[0].state.online_params,
            snap.agents[0].state.online_params);
  ASSERT_EQ(back.agents[0].state.replay.entries.size(),
            snap.agents[0].state.replay.entries.size());
  for (std::size_t i = 0; i < snap.agents[0].state.replay.entries.size();
       ++i) {
    EXPECT_EQ(back.agents[0].state.replay.entries[i].state,
              snap.agents[0].state.replay.entries[i].state);
    EXPECT_EQ(back.agents[0].state.replay.entries[i].action,
              snap.agents[0].state.replay.entries[i].action);
  }
  EXPECT_EQ(back.metrics.counters, snap.metrics.counters);
  EXPECT_EQ(back.metrics.gauges, snap.metrics.gauges);
  EXPECT_EQ(back.metrics.series, snap.metrics.series);
}

// A snapshot resumes under the build that wrote it: the reader accepts
// exactly the current payload version. Re-framing a valid snapshot's
// records unchanged must still load; the same records with record 0's
// leading version word patched to an older version must be refused.
TEST(SimSnapshot, RejectsEveryOtherPayloadVersion) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  const auto bytes = sim::serialize_snapshot(sim::capture_run(p));

  const auto with_version = [&](std::optional<std::uint32_t> version) {
    util::RecordReader reader(bytes);
    util::RecordWriter writer;
    bool header = true;
    while (const auto rec = reader.next()) {
      std::vector<std::uint8_t> payload(rec->begin(), rec->end());
      if (header && version) {
        for (int i = 0; i < 4; ++i) {
          payload[i] = static_cast<std::uint8_t>(*version >> (8 * i));
        }
      }
      header = false;
      writer.append(payload);
    }
    return writer.bytes();
  };

  ASSERT_EQ(with_version(std::nullopt), bytes);
  EXPECT_NO_THROW((void)sim::deserialize_snapshot(with_version(std::nullopt)));
  for (const std::uint32_t old : {5u, 4u, 1u}) {
    EXPECT_THROW((void)sim::deserialize_snapshot(with_version(old)),
                 std::runtime_error)
        << "version " << old;
  }
}

// Restoring into the wrong pipeline must throw, never mix two runs.
TEST(SimSnapshot, RestoreRejectsIncompatiblePipeline) {
  const auto traces = make_traces(42);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 42));
  p.train_forecasters(0, kDay);
  sim::RunSnapshot snap = sim::capture_run(p);

  {  // different seed
    obs::MetricsRegistry r2;
    core::EmsPipeline other(traces, make_config(r2, 43));
    EXPECT_THROW(sim::restore_run(other, snap), std::runtime_error);
  }
  {  // different method
    obs::MetricsRegistry r2;
    auto cfg = make_config(r2, 42);
    cfg.method = core::EmsMethod::kFrl;
    core::EmsPipeline other(traces, cfg);
    EXPECT_THROW(sim::restore_run(other, snap), std::runtime_error);
  }
  {  // tampered home count
    sim::RunSnapshot bad = snap;
    bad.num_homes = 99;
    EXPECT_THROW(sim::restore_run(p, bad), std::runtime_error);
  }
}

// Hostile-input sweeps: every truncation and every sampled bit flip must
// end in a clean throw — no OOB reads (ASan job), no silent acceptance.
TEST(SimSnapshot, TruncationAlwaysThrows) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  const auto bytes = sim::serialize_snapshot(sim::capture_run(p));
  ASSERT_GT(bytes.size(), 400u);

  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 200 ? 1 : 97)) {
    const std::vector<std::uint8_t> trunc(bytes.begin(),
                                          bytes.begin() + cut);
    EXPECT_THROW((void)sim::deserialize_snapshot(trunc), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(SimSnapshot, BitFlipAlwaysThrows) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  const auto bytes = sim::serialize_snapshot(sim::capture_run(p));

  for (std::size_t pos = 0; pos < bytes.size(); pos += 101) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x40;
    EXPECT_THROW((void)sim::deserialize_snapshot(corrupt),
                 std::runtime_error)
        << "flip at " << pos;
  }
}

namespace {
std::uint64_t home_pushes(const core::EmsPipeline& p, std::size_t home) {
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < p.num_devices(home); ++d) {
    if (const auto* agent = p.agent_ptr(home, d)) {
      total += agent->replay().total_pushed();
    }
  }
  return total;
}
}  // namespace

// Warm restart under a crash window. Residence 1 crashes for DRL rounds
// [1,3). With a per-round SnapshotManager, when it comes back at round 3
// it reloads its last pre-crash snapshot (end of round 0) — so of the 6
// rounds it only keeps 4 rounds of replay pushes (round 0 + rounds 3-5).
// Without the manager the original uplink-loss model holds: in-process
// state survives the outage and all 6 rounds of pushes remain.
TEST(SimSnapshot, CrashedHomeWarmRestartsFromLastSnapshot) {
  const auto traces = make_traces(42);
  const auto with_crash = [&](obs::MetricsRegistry& reg) {
    auto cfg = make_config(reg);
    cfg.robustness.failures.crashes.push_back(
        {.agent = 1, .from_round = 1, .until_round = 3});
    return cfg;
  };

  obs::MetricsRegistry reg_base;
  core::EmsPipeline baseline(traces, with_crash(reg_base));
  baseline.train_forecasters(0, kDay);
  baseline.train_ems(kDay, 2 * kDay);

  obs::MetricsRegistry reg_warm;
  core::EmsPipeline warm(traces, with_crash(reg_warm));
  warm.train_forecasters(0, kDay);
  sim::SnapshotManager::Options so;
  so.every_rounds = 1;  // in-memory only: path stays empty
  so.train_begin_minute = kDay;
  so.train_end_minute = 2 * kDay;
  sim::SnapshotManager manager(warm, so);
  warm.train_ems(kDay, 2 * kDay);

  EXPECT_EQ(manager.saves(), 6u);
  EXPECT_EQ(manager.home_restarts(), 1u);
  ASSERT_NE(manager.last(), nullptr);

  // Home 1: warm restart rolled its replay back to the end-of-round-0
  // snapshot before rounds 3-5 ran -> 4 rounds of pushes vs 6.
  const std::uint64_t base1 = home_pushes(baseline, 1);
  const std::uint64_t warm1 = home_pushes(warm, 1);
  ASSERT_GT(base1, 0u);
  EXPECT_EQ(warm1 * 6, base1 * 4);

  // Homes that never crashed are untouched by the manager.
  EXPECT_EQ(home_pushes(warm, 0), home_pushes(baseline, 0));
  EXPECT_EQ(home_pushes(warm, 2), home_pushes(baseline, 2));
}

// SnapshotManager periodic file saves: the file on disk always holds the
// latest snapshot and reloads bitwise.
TEST(SimSnapshot, ManagerWritesLoadableFiles) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pfdrl_mgr_test.pfrc")
          .string();
  sim::SnapshotManager::Options so;
  so.path = path;
  so.every_rounds = 2;  // saves after rounds 2, 4, 6
  so.train_begin_minute = kDay;
  so.train_end_minute = 2 * kDay;
  sim::SnapshotManager manager(p, so);
  p.train_ems(kDay, 2 * kDay);

  EXPECT_EQ(manager.saves(), 3u);
  ASSERT_NE(manager.last(), nullptr);
  const sim::RunSnapshot from_disk = sim::load_snapshot(path);
  EXPECT_EQ(from_disk.ems_rounds_done, manager.last()->ems_rounds_done);
  EXPECT_EQ(from_disk.ems_rounds_done, 6u);
  expect_runs_equal(*manager.last(), from_disk);
  std::remove(path.c_str());
}

// --- Per-shard snapshots ----------------------------------------------

// split -> merge reproduces the whole-run snapshot byte-for-byte, the
// property the sharded save path rests on.
TEST(SimShardSnapshot, SplitMergeRoundTripsByteIdentical) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  p.train_ems(kDay, kDay + kRoundMinutes);
  const sim::RunSnapshot snap = sim::capture_run(p, kDay + kRoundMinutes);

  const auto plan = sim::ShardPlan::make(snap.num_homes, 2);
  const auto parts = sim::split_shards(snap, plan);
  ASSERT_EQ(parts.size(), 2u);

  // Shard identity stamped; agents bucketed by the plan; global state
  // (buses, metrics, upload accounting) rides shard 0 only.
  for (std::size_t k = 0; k < parts.size(); ++k) {
    EXPECT_EQ(parts[k].shard_index, k);
    EXPECT_EQ(parts[k].shard_count, 2u);
    EXPECT_EQ(parts[k].seed, snap.seed);
    EXPECT_EQ(parts[k].num_homes, snap.num_homes);
    for (const auto& a : parts[k].agents) {
      EXPECT_EQ(plan.shard_of(a.home), k) << "home " << a.home;
    }
  }
  EXPECT_TRUE(parts[0].forecast_bus.present == snap.forecast_bus.present);
  EXPECT_FALSE(parts[1].forecast_bus.present);
  EXPECT_FALSE(parts[1].drl_bus.present);
  EXPECT_TRUE(parts[1].metrics.counters.empty());

  const sim::RunSnapshot merged = sim::merge_shards(parts);
  EXPECT_EQ(sim::serialize_snapshot(merged), sim::serialize_snapshot(snap));

  // Merge accepts the parts in any order.
  std::vector<sim::RunSnapshot> reversed = {parts[1], parts[0]};
  EXPECT_EQ(sim::serialize_snapshot(sim::merge_shards(reversed)),
            sim::serialize_snapshot(snap));
}

// Per-shard files on disk: save writes base.shard<k>, load merges them
// back to the original snapshot.
TEST(SimShardSnapshot, ShardedSaveLoadRoundTrip) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  const sim::RunSnapshot snap = sim::capture_run(p);

  const std::string base =
      (std::filesystem::temp_directory_path() / "pfdrl_shard_test.pfrc")
          .string();
  const auto plan = sim::ShardPlan::make(snap.num_homes, 3);
  sim::save_sharded_snapshot(snap, base, plan);
  for (std::size_t k = 0; k < plan.shards; ++k) {
    EXPECT_TRUE(
        std::filesystem::exists(sim::shard_snapshot_path(base, k)))
        << "shard " << k;
  }

  const sim::RunSnapshot back = sim::load_sharded_snapshot(base);
  EXPECT_EQ(sim::serialize_snapshot(back), sim::serialize_snapshot(snap));

  // A missing shard file must fail the whole load, never a partial merge.
  std::remove(sim::shard_snapshot_path(base, 1).c_str());
  EXPECT_THROW((void)sim::load_sharded_snapshot(base), std::runtime_error);
  for (std::size_t k = 0; k < plan.shards; ++k) {
    std::remove(sim::shard_snapshot_path(base, k).c_str());
  }
}

TEST(SimShardSnapshot, SplitAndMergeValidateInputs) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  const sim::RunSnapshot snap = sim::capture_run(p);

  // Plan for a different population.
  EXPECT_THROW((void)sim::split_shards(
                   snap, sim::ShardPlan::make(snap.num_homes + 1, 2)),
               std::invalid_argument);

  auto parts = sim::split_shards(
      snap, sim::ShardPlan::make(snap.num_homes, 2));
  // Splitting an already-partial snapshot is refused.
  EXPECT_THROW((void)sim::split_shards(
                   parts[0], sim::ShardPlan::make(snap.num_homes, 2)),
               std::invalid_argument);

  // Duplicate shard index.
  std::vector<sim::RunSnapshot> dup = {parts[0], parts[0]};
  EXPECT_THROW((void)sim::merge_shards(dup), std::invalid_argument);
  // Wrong part count for the declared shard_count.
  std::vector<sim::RunSnapshot> missing = {parts[0]};
  EXPECT_THROW((void)sim::merge_shards(missing), std::invalid_argument);
  // Inconsistent headers across parts.
  std::vector<sim::RunSnapshot> skewed = parts;
  skewed[1].seed ^= 1;
  EXPECT_THROW((void)sim::merge_shards(skewed), std::invalid_argument);
}

// A serialized stream round-trips the shard identity; hostile shard
// identities are rejected at deserialize time.
TEST(SimShardSnapshot, SerializedShardIdentityRoundTripsAndValidates) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);
  sim::RunSnapshot snap = sim::capture_run(p);
  snap.shard_index = 2;
  snap.shard_count = 5;

  const auto back = sim::deserialize_snapshot(sim::serialize_snapshot(snap));
  EXPECT_EQ(back.shard_index, 2u);
  EXPECT_EQ(back.shard_count, 5u);

  snap.shard_index = 5;  // out of range for shard_count = 5
  EXPECT_THROW(
      (void)sim::deserialize_snapshot(sim::serialize_snapshot(snap)),
      std::runtime_error);
}

// SnapshotManager with Options::shards >= 2 persists per-shard files
// whose merge equals its in-memory whole-run snapshot, and the sharded
// crash-resume matches the monolithic one bitwise.
TEST(SimShardSnapshot, ManagerWritesMergeableShardFiles) {
  const auto traces = make_traces(7);
  obs::MetricsRegistry reg;
  core::EmsPipeline p(traces, make_config(reg, 7));
  p.train_forecasters(0, kDay);

  const std::string base =
      (std::filesystem::temp_directory_path() / "pfdrl_mgr_shard.pfrc")
          .string();
  sim::SnapshotManager::Options so;
  so.path = base;
  so.every_rounds = 2;
  so.train_begin_minute = kDay;
  so.train_end_minute = 2 * kDay;
  so.shards = 2;
  sim::SnapshotManager manager(p, so);
  p.train_ems(kDay, 2 * kDay);

  EXPECT_EQ(manager.saves(), 3u);
  ASSERT_NE(manager.last(), nullptr);
  EXPECT_FALSE(std::filesystem::exists(base));  // no monolithic file
  const sim::RunSnapshot from_disk = sim::load_sharded_snapshot(base);
  EXPECT_EQ(from_disk.ems_rounds_done, 6u);
  expect_runs_equal(*manager.last(), from_disk);
  EXPECT_EQ(sim::serialize_snapshot(from_disk),
            sim::serialize_snapshot(*manager.last()));
  for (std::size_t k = 0; k < 2; ++k) {
    std::remove(sim::shard_snapshot_path(base, k).c_str());
  }
}

// End-to-end: interrupt a run, persist per-shard, resume from the merged
// shards in a fresh pipeline — bitwise identical to never stopping.
// (The sharded twin of CrashResumeGoldenBitwise.)
TEST(SimShardSnapshot, ShardedCrashResumeGoldenBitwise) {
  const auto traces = make_traces(42);

  obs::MetricsRegistry reg_a;
  core::EmsPipeline a(traces, make_config(reg_a));
  a.train_forecasters(0, kDay);
  a.train_ems(kDay, 2 * kDay);
  const sim::RunSnapshot final_a = sim::capture_run(a);

  const std::string base =
      (std::filesystem::temp_directory_path() / "pfdrl_shard_resume.pfrc")
          .string();
  {
    obs::MetricsRegistry reg_b;
    core::EmsPipeline b(traces, make_config(reg_b));
    b.train_forecasters(0, kDay);
    b.train_ems(kDay, kDay + 3 * kRoundMinutes);
    const auto snap = sim::capture_run(b, kDay + 3 * kRoundMinutes);
    sim::save_sharded_snapshot(
        snap, base, sim::ShardPlan::make(snap.num_homes, 2));
  }

  obs::MetricsRegistry reg_c;
  core::EmsPipeline c(traces, make_config(reg_c));
  const sim::RunSnapshot snap = sim::load_sharded_snapshot(base);
  EXPECT_EQ(snap.ems_rounds_done, 3u);
  EXPECT_EQ(snap.shard_count, 1u);  // merged back to whole-run identity
  sim::restore_run(c, snap);
  c.train_ems(kDay + 3 * kRoundMinutes, 2 * kDay);

  expect_runs_equal(final_a, sim::capture_run(c));
  for (std::size_t k = 0; k < 2; ++k) {
    std::remove(sim::shard_snapshot_path(base, k).c_str());
  }
}

}  // namespace
}  // namespace pfdrl
