// Chaos soak (CTest label: stress). Hammers the exchange engine and both
// federation paths with every fault at once — drops, delay+jitter,
// duplication, rolling partitions, rolling crashes,
// stragglers, deadlines and quorum gates — over many rounds and seeds.
// The assertions are liveness and invariants, not trajectories: every
// round terminates, every live item either averages or falls back,
// bus accounting stays consistent, and two identically seeded soaks
// agree bitwise. Run the quick suite with `ctest -LE stress` to skip.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/pipeline.hpp"
#include "data/trace.hpp"
#include "fl/exchange.hpp"
#include "net/bus.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "sim/snapshot.hpp"

namespace pfdrl::fl {
namespace {

net::FaultPlan everything_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.link.drop_probability = 0.25;
  plan.delay_s = 0.001;
  plan.jitter_s = 0.003;
  plan.duplicate_probability = 0.1;
  plan.seed = seed;
  // Rolling split-brain windows: every 10 rounds, agents {0,1,2} lose
  // the rest of the mesh for 3 rounds.
  for (std::uint64_t r = 5; r < 100; r += 10) {
    plan.partitions.push_back({.from_round = r,
                               .until_round = r + 3,
                               .group = {0, 1, 2}});
  }
  return plan;
}

ExchangePolicy everything_policy() {
  ExchangePolicy policy;
  policy.round_deadline_s = 0.006;
  policy.quorum_fraction = 0.4;
  policy.hub_retries = 3;
  policy.retry_backoff_s = 0.002;
  // Rolling crashes: agent (r / 7) % n down for rounds [7k, 7k+2).
  for (std::uint64_t k = 0; k < 14; ++k) {
    policy.failures.crashes.push_back(
        {.agent = static_cast<net::AgentId>(k % 8),
         .from_round = 7 * k,
         .until_round = 7 * k + 2});
  }
  policy.failures.stragglers.push_back({.agent = 5, .compute_delay_s = 0.004});
  policy.failures.stragglers.push_back({.agent = 6, .compute_delay_s = 0.02});
  return policy;
}

struct SoakTotals {
  std::uint64_t averaged = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t crashed = 0;
  std::uint64_t late = 0;
  std::uint64_t stale = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t retries = 0;
  std::vector<double> final_params;

  bool operator==(const SoakTotals&) const = default;
};

SoakTotals soak(net::TopologyKind kind, std::uint64_t seed,
                std::size_t rounds) {
  const std::size_t n = 8;
  const std::size_t len = 24;
  std::vector<std::vector<double>> params(n, std::vector<double>(len));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t i = 0; i < len; ++i) {
      params[a][i] = static_cast<double>(a * 1000 + i);
    }
  }

  net::MessageBus bus(net::Topology(kind, n), everything_plan(seed));
  ParamExchange::Options options;
  options.policy = everything_policy();
  ParamExchange exchange(bus, options);

  SoakTotals totals;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::vector<ExchangeItem> items;
    for (std::size_t a = 0; a < n; ++a) {
      items.push_back({.agent = static_cast<net::AgentId>(a),
                       // Two device-type groups of four homes each.
                       .device_type = static_cast<std::uint32_t>(a % 2),
                       .send = params[a],
                       .in_place = params[a]});
    }
    const auto stats = exchange.round(items, r, {});

    // Conservation: every live item either averaged or fell back.
    EXPECT_EQ(stats.items_averaged + stats.local_fallbacks +
                  stats.crashed_items,
              n)
        << "round " << r;
    totals.averaged += stats.items_averaged;
    totals.fallbacks += stats.local_fallbacks;
    totals.crashed += stats.crashed_items;
    totals.late += stats.late_msgs;
    totals.stale += stats.stale_msgs;
    totals.duplicates += stats.duplicates;
    totals.retries += stats.retries;
  }

  // Bus ledger stays consistent under all faults at once.
  const auto bs = bus.stats();
  EXPECT_GT(bs.messages_dropped, 0u);
  EXPECT_GE(bs.messages_dropped, bs.messages_partition_dropped);
  EXPECT_GT(bs.messages_duplicated, 0u);
  EXPECT_GT(bs.messages_delayed, 0u);
  EXPECT_GT(bs.simulated_fault_delay_seconds, 0.0);

  for (const auto& p : params) {
    totals.final_params.insert(totals.final_params.end(), p.begin(), p.end());
  }
  return totals;
}

TEST(ChaosStress, FullMeshSoakCompletesWithDegradation) {
  const auto totals = soak(net::TopologyKind::kFullMesh, 1234, 100);
  EXPECT_GT(totals.averaged, 0u);    // quorum was reachable sometimes
  EXPECT_GT(totals.fallbacks, 0u);   // ... and missed sometimes
  EXPECT_GT(totals.crashed, 0u);
  EXPECT_GT(totals.late, 0u);
  EXPECT_GT(totals.stale, 0u);       // crash backlogs were discarded
  EXPECT_GT(totals.duplicates, 0u);  // dedupe engaged
}

TEST(ChaosStress, StarSoakCompletesWithRetries) {
  const auto totals = soak(net::TopologyKind::kStar, 99, 100);
  EXPECT_GT(totals.averaged, 0u);
  EXPECT_GT(totals.fallbacks, 0u);
  EXPECT_GT(totals.retries, 0u);  // the lossy leaf->hub path retried
}

TEST(ChaosStress, SoakIsBitwiseDeterministicPerSeed) {
  for (auto kind : {net::TopologyKind::kFullMesh, net::TopologyKind::kStar}) {
    const auto first = soak(kind, 777, 60);
    const auto second = soak(kind, 777, 60);
    EXPECT_TRUE(first == second);
    const auto other = soak(kind, 778, 60);
    EXPECT_FALSE(first.final_params == other.final_params);
  }
}

// Snapshot-under-chaos soak: a full PFDRL pipeline under every fault at
// once (drops, delay+jitter, duplication, a partition
// window, crash windows — one spanning the snapshot boundary — a
// straggler, a deadline and a quorum gate) is snapshotted mid-run,
// pushed through the full serialize -> deserialize codec, restored into
// a fresh pipeline and run to completion. The resumed run's learned
// state (parameter digests) and evaluation results must match the
// uninterrupted run exactly: fault draws are stateless hashes of each
// delivery, so no fault stream is restored, and an uncaptured crash
// backlog is invisible (the exchange discards stale backlog either way,
// docs/robustness.md).
TEST(ChaosStress, SnapshotResumeUnderChaosMatchesUninterrupted) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 4;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 4;
  sc.neighborhood.seed = 42;
  sc.trace.days = 2;
  sc.trace.seed = 42;
  const auto traces = sim::Scenario::generate(sc).traces;

  const auto make_config = [](obs::MetricsRegistry& reg) {
    auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, 42);
    cfg.forecast_method = forecast::Method::kLr;
    cfg.window.window = 8;
    cfg.window.horizon = 5;
    cfg.dqn.hidden = {12, 12};
    cfg.alpha = 2;
    cfg.beta_hours = 6.0;
    cfg.gamma_hours = 3.0;  // 8 DRL rounds over the training day
    cfg.fault.link.drop_probability = 0.2;
    cfg.fault.delay_s = 0.002;
    cfg.fault.jitter_s = 0.004;
    cfg.fault.duplicate_probability = 0.05;
    cfg.fault.partitions.push_back(
        {.from_round = 1, .until_round = 3, .group = {0, 1}});
    cfg.robustness.round_deadline_s = 0.006;
    cfg.robustness.quorum_fraction = 0.5;
    cfg.robustness.failures.crashes.push_back(
        {.agent = 2, .from_round = 0, .until_round = 2});
    // Spans the round-4 snapshot boundary: home 1 is down both when the
    // snapshot is taken and when the resumed run starts.
    cfg.robustness.failures.crashes.push_back(
        {.agent = 1, .from_round = 3, .until_round = 5});
    cfg.robustness.failures.stragglers.push_back(
        {.agent = 3, .compute_delay_s = 0.02});
    cfg.metrics = &reg;
    return cfg;
  };

  const std::size_t day = data::kMinutesPerDay;
  const std::size_t cut = day + 4 * 180;  // after 4 of the 8 rounds

  // Uninterrupted reference.
  obs::MetricsRegistry reg_a;
  core::EmsPipeline a(traces, make_config(reg_a));
  a.train_forecasters(0, day);
  a.train_ems(day, 2 * day);

  // Interrupted run, snapshotted through the wire format at the cut.
  std::vector<std::uint8_t> wire;
  {
    obs::MetricsRegistry reg_b;
    core::EmsPipeline b(traces, make_config(reg_b));
    b.train_forecasters(0, day);
    b.train_ems(day, cut);
    wire = sim::serialize_snapshot(sim::capture_run(b, cut));
  }

  obs::MetricsRegistry reg_c;
  core::EmsPipeline c(traces, make_config(reg_c));
  sim::restore_run(c, sim::deserialize_snapshot(wire));
  c.train_ems(cut, 2 * day);

  const sim::RunSnapshot final_a = sim::capture_run(a);
  const sim::RunSnapshot final_c = sim::capture_run(c);
  ASSERT_EQ(final_a.agents.size(), final_c.agents.size());
  for (std::size_t i = 0; i < final_a.agents.size(); ++i) {
    const auto& x = final_a.agents[i].state;
    const auto& y = final_c.agents[i].state;
    EXPECT_EQ(nn::parameter_digest(x.online_params),
              nn::parameter_digest(y.online_params))
        << "agent " << i;
    EXPECT_EQ(nn::parameter_digest(x.target_params),
              nn::parameter_digest(y.target_params))
        << "agent " << i;
    EXPECT_EQ(x.rng.s, y.rng.s) << "agent " << i;
    EXPECT_EQ(x.act_steps, y.act_steps) << "agent " << i;
  }
  ASSERT_EQ(final_a.forecasters.size(), final_c.forecasters.size());
  for (std::size_t i = 0; i < final_a.forecasters.size(); ++i) {
    EXPECT_EQ(nn::parameter_digest(final_a.forecasters[i].parameters),
              nn::parameter_digest(final_c.forecasters[i].parameters))
        << "forecaster " << i;
  }

  EXPECT_EQ(a.forecast_accuracy(day, 2 * day),
            c.forecast_accuracy(day, 2 * day));
  const auto ra = a.evaluate(day, 2 * day);
  const auto rc = c.evaluate(day, 2 * day);
  ASSERT_EQ(ra.size(), rc.size());
  for (std::size_t h = 0; h < ra.size(); ++h) {
    EXPECT_EQ(ra[h].total_reward, rc[h].total_reward) << "home " << h;
    EXPECT_EQ(ra[h].comfort_violations, rc[h].comfort_violations)
        << "home " << h;
  }
}

// Crash-mid-pipeline resume: the same interrupt-and-restore drill on a
// sharded run, with scheduled crash windows only, one spanning the
// snapshot boundary. The resumed run must match the uninterrupted one
// bitwise: the snapshot is taken at a segment boundary, where the
// pipeline has fully quiesced, so no in-flight round state can leak past
// the cut.
TEST(ChaosStress, PipelineCrashResumeMatchesUninterrupted) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 4;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 4;
  sc.neighborhood.seed = 42;
  sc.trace.days = 2;
  sc.trace.seed = 42;
  const auto traces = sim::Scenario::generate(sc).traces;

  const auto make_config = [](obs::MetricsRegistry& reg) {
    auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, 42);
    cfg.forecast_method = forecast::Method::kLr;
    cfg.window.window = 8;
    cfg.window.horizon = 5;
    cfg.dqn.hidden = {12, 12};
    cfg.alpha = 2;
    cfg.beta_hours = 6.0;
    cfg.gamma_hours = 3.0;  // 8 DRL rounds over the training day
    cfg.shards = 2;
    cfg.robustness.failures.crashes.push_back(
        {.agent = 2, .from_round = 0, .until_round = 2});
    // Spans the round-4 snapshot boundary: home 1 is down both when the
    // snapshot is taken and when the resumed run starts.
    cfg.robustness.failures.crashes.push_back(
        {.agent = 1, .from_round = 3, .until_round = 5});
    cfg.metrics = &reg;
    return cfg;
  };

  const std::size_t day = data::kMinutesPerDay;
  const std::size_t cut = day + 4 * 180;  // after 4 of the 8 rounds

  // Uninterrupted reference.
  obs::MetricsRegistry reg_a;
  core::EmsPipeline a(traces, make_config(reg_a));
  a.train_forecasters(0, day);
  a.train_ems(day, 2 * day);
  EXPECT_GT(reg_a.counter("ems.pipeline.rounds").value(), 0u)
      << "round engine did not engage";

  // Interrupted run, snapshotted through the wire format at the cut.
  std::vector<std::uint8_t> wire;
  {
    obs::MetricsRegistry reg_b;
    core::EmsPipeline b(traces, make_config(reg_b));
    b.train_forecasters(0, day);
    b.train_ems(day, cut);
    EXPECT_GT(reg_b.counter("ems.pipeline.rounds").value(), 0u);
    wire = sim::serialize_snapshot(sim::capture_run(b, cut));
  }

  obs::MetricsRegistry reg_c;
  core::EmsPipeline c(traces, make_config(reg_c));
  sim::restore_run(c, sim::deserialize_snapshot(wire));
  c.train_ems(cut, 2 * day);
  EXPECT_GT(reg_c.counter("ems.pipeline.rounds").value(), 0u)
      << "resumed run did not take the round engine";

  const sim::RunSnapshot final_a = sim::capture_run(a);
  const sim::RunSnapshot final_c = sim::capture_run(c);
  ASSERT_EQ(final_a.agents.size(), final_c.agents.size());
  for (std::size_t i = 0; i < final_a.agents.size(); ++i) {
    const auto& x = final_a.agents[i].state;
    const auto& y = final_c.agents[i].state;
    EXPECT_EQ(nn::parameter_digest(x.online_params),
              nn::parameter_digest(y.online_params))
        << "agent " << i;
    EXPECT_EQ(nn::parameter_digest(x.target_params),
              nn::parameter_digest(y.target_params))
        << "agent " << i;
    EXPECT_EQ(x.rng.s, y.rng.s) << "agent " << i;
    EXPECT_EQ(x.act_steps, y.act_steps) << "agent " << i;
  }
  ASSERT_EQ(final_a.forecasters.size(), final_c.forecasters.size());
  for (std::size_t i = 0; i < final_a.forecasters.size(); ++i) {
    EXPECT_EQ(nn::parameter_digest(final_a.forecasters[i].parameters),
              nn::parameter_digest(final_c.forecasters[i].parameters))
        << "forecaster " << i;
  }

  const auto ra = a.evaluate(day, 2 * day);
  const auto rc = c.evaluate(day, 2 * day);
  ASSERT_EQ(ra.size(), rc.size());
  for (std::size_t h = 0; h < ra.size(); ++h) {
    EXPECT_EQ(ra[h].total_reward, rc[h].total_reward) << "home " << h;
    EXPECT_EQ(ra[h].comfort_violations, rc[h].comfort_violations)
        << "home " << h;
  }
}

}  // namespace
}  // namespace pfdrl::fl
