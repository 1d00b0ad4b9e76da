// Fixed-seed golden determinism test for the PFDRL pipeline.
//
// Runs a small but complete PFDRL pipeline (3 homes, 4 devices each,
// LR forecasters, 2-hidden-layer DQNs, alpha = 2 so the federated round
// exercises the prefix split) and asserts the forecast accuracy and the
// per-home EpisodeResult totals are *bitwise* identical to values
// recorded from the pre-ParamExchange implementation. Every stage is
// deterministic by construction (per-job forked RNGs, fixed aggregation
// order, fixed-order chunked reductions), so any drift here means a
// refactor changed numerical behaviour, not just structure.
//
// If this test fails after an *intentional* semantic change, re-record
// the constants by running the test and copying the "golden actual"
// block it prints on failure.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/pipeline.hpp"
#include "data/trace.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace pfdrl {
namespace {

struct GoldenHome {
  double total_reward;
  double standby_kwh;
  double saved_kwh;
  std::size_t comfort_violations;
  double violation_kwh;
  std::size_t steps;
};

// Recorded from the seed implementation (PR 1 tree) with the exact
// configuration in run_small(); %.17g round-trips doubles exactly.
constexpr double kGoldenAccuracy = 0.64804216308708673;
const GoldenHome kGolden[3] = {
    {34620, 0.13383352753431202, 0.13383352753431202, 4,
     0.012029867034949609, 2880},
    {53280, 0.26892035280230486, 0.072634918212407307, 1,
     0.0014929682995983061, 4320},
    {34860, 0.10526374927161707, 0.094155883730830184, 2,
     0.042400546539063777, 4320},
};

struct SmallOutcome {
  double accuracy = 0.0;
  std::vector<ems::EpisodeResult> results;
};

SmallOutcome run_small(std::size_t shards,
                       std::uint64_t* pipeline_rounds = nullptr) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 3;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 4;
  sc.neighborhood.seed = 42;
  sc.trace.days = 2;
  sc.trace.seed = 42;
  const auto traces = sim::Scenario::generate(sc).traces;

  auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, 42);
  cfg.forecast_method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  cfg.dqn.hidden = {12, 12};
  cfg.alpha = 2;  // genuine base/personalization split (3 dense layers)
  cfg.gamma_hours = 6.0;
  cfg.shards = shards;
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;

  core::EmsPipeline pipeline(traces, cfg);
  const std::size_t day = data::kMinutesPerDay;
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);
  if (pipeline_rounds != nullptr) {
    *pipeline_rounds = reg.counter("ems.pipeline.rounds").value();
  }

  SmallOutcome out;
  out.accuracy = pipeline.forecast_accuracy(day, 2 * day);
  out.results = pipeline.evaluate(day, 2 * day);
  return out;
}

void expect_golden(const SmallOutcome& out) {
  ASSERT_EQ(out.results.size(), 3u);
  if (out.accuracy != kGoldenAccuracy) {
    std::printf("golden actual:\n  accuracy %.17g\n", out.accuracy);
    for (const auto& r : out.results) {
      std::printf("  {%.17g, %.17g, %.17g, %zu, %.17g, %zu},\n",
                  r.total_reward, r.standby_kwh, r.saved_kwh,
                  r.comfort_violations, r.violation_kwh, r.steps);
    }
  }
  EXPECT_EQ(out.accuracy, kGoldenAccuracy);
  for (std::size_t h = 0; h < out.results.size(); ++h) {
    const auto& r = out.results[h];
    EXPECT_EQ(r.total_reward, kGolden[h].total_reward) << "home " << h;
    EXPECT_EQ(r.standby_kwh, kGolden[h].standby_kwh) << "home " << h;
    EXPECT_EQ(r.saved_kwh, kGolden[h].saved_kwh) << "home " << h;
    EXPECT_EQ(r.comfort_violations, kGolden[h].comfort_violations)
        << "home " << h;
    EXPECT_EQ(r.violation_kwh, kGolden[h].violation_kwh) << "home " << h;
    EXPECT_EQ(r.steps, kGolden[h].steps) << "home " << h;
  }
}

TEST(GoldenPfdrl, SmallRunIsBitwiseStable) { expect_golden(run_small(0)); }

// The sharded engine (per-shard fused groups, batched cross-shard
// routing, per-shard publish/apply) must reproduce the flat run bitwise
// — the same pinned constants, not merely run-to-run agreement. See
// docs/scaling.md for why this holds (order-independent delivery +
// sorted drains + per-job forked RNGs).
TEST(GoldenPfdrl, ShardedRunMatchesFlatGoldenBitwise) {
  expect_golden(run_small(2));
}

// Every run takes the round engine — a flat run is one shard — and both
// the flat and the sharded run land on the same pinned constants.
TEST(GoldenPfdrl, FlatAndShardedRoundEngineMatchGoldenBitwise) {
  std::uint64_t rounds = 0;
  expect_golden(run_small(0, &rounds));
  EXPECT_GT(rounds, 0u) << "flat run did not record ems.pipeline.rounds";

  rounds = 0;
  expect_golden(run_small(2, &rounds));
  EXPECT_GT(rounds, 0u) << "sharded run did not record ems.pipeline.rounds";
}

// Chaos determinism: a fully loaded fault plan (drops, delay+jitter,
// duplication, a partition window, a crashed residence, a
// straggler, a deadline and a quorum gate) must still be bitwise
// reproducible per seed — every fault draw is a stateless hash of its
// delivery, keyed by per-bus seeds. Comparisons between runs rather than
// pinned constants, so the tests pin the determinism property, not one
// arbitrary chaotic trajectory.
struct ChaosOutcome {
  double accuracy = 0.0;
  std::vector<ems::EpisodeResult> results;
  std::uint64_t quorum_met = 0;
  std::uint64_t quorum_missed = 0;
  std::uint64_t stale_rounds = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t crashed_items = 0;
  std::uint64_t late_msgs = 0;
};

ChaosOutcome run_chaos(std::uint64_t seed, std::size_t shards = 0) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 4;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 4;
  sc.neighborhood.seed = seed;
  sc.trace.days = 2;
  sc.trace.seed = seed;
  const auto traces = sim::Scenario::generate(sc).traces;

  auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, seed);
  cfg.forecast_method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  cfg.dqn.hidden = {12, 12};
  cfg.alpha = 2;
  cfg.beta_hours = 6.0;
  cfg.gamma_hours = 3.0;  // many DRL rounds so every fault window fires
  cfg.fault.link.drop_probability = 0.2;
  cfg.fault.delay_s = 0.002;
  cfg.fault.jitter_s = 0.004;
  cfg.fault.duplicate_probability = 0.05;
  cfg.fault.partitions.push_back({.from_round = 1,
                                  .until_round = 3,
                                  .group = {0, 1}});
  cfg.robustness.round_deadline_s = 0.006;
  cfg.robustness.quorum_fraction = 0.5;
  cfg.robustness.failures.crashes.push_back(
      {.agent = 2, .from_round = 0, .until_round = 2});
  cfg.robustness.failures.stragglers.push_back(
      {.agent = 3, .compute_delay_s = 0.02});
  cfg.shards = shards;
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;

  core::EmsPipeline pipeline(traces, cfg);
  const std::size_t day = data::kMinutesPerDay;
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);

  ChaosOutcome out;
  out.accuracy = pipeline.forecast_accuracy(day, 2 * day);
  out.results = pipeline.evaluate(day, 2 * day);
  out.quorum_met = reg.counter("exchange.quorum_met").value();
  out.quorum_missed = reg.counter("exchange.quorum_missed").value();
  out.stale_rounds = reg.counter("exchange.stale_rounds").value();
  out.fault_drops = reg.counter("fault.drops").value();
  out.crashed_items = reg.counter("exchange.crashed_items").value();
  out.late_msgs = reg.counter("exchange.late_msgs").value();
  return out;
}

TEST(GoldenChaos, SeededChaosRunIsBitwiseReproducible) {
  const auto first = run_chaos(42);
  const auto second = run_chaos(42);

  // The chaos actually engaged: faults fired and the degradation
  // machinery made real decisions (otherwise this test pins nothing).
  EXPECT_GT(first.fault_drops, 0u);
  EXPECT_GT(first.crashed_items, 0u);
  EXPECT_GT(first.quorum_met + first.quorum_missed, 0u);
  EXPECT_GT(first.late_msgs + first.stale_rounds, 0u);

  EXPECT_EQ(first.accuracy, second.accuracy);
  EXPECT_EQ(first.quorum_met, second.quorum_met);
  EXPECT_EQ(first.quorum_missed, second.quorum_missed);
  EXPECT_EQ(first.stale_rounds, second.stale_rounds);
  EXPECT_EQ(first.fault_drops, second.fault_drops);
  EXPECT_EQ(first.late_msgs, second.late_msgs);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t h = 0; h < first.results.size(); ++h) {
    EXPECT_EQ(first.results[h].total_reward, second.results[h].total_reward);
    EXPECT_EQ(first.results[h].standby_kwh, second.results[h].standby_kwh);
    EXPECT_EQ(first.results[h].saved_kwh, second.results[h].saved_kwh);
    EXPECT_EQ(first.results[h].comfort_violations,
              second.results[h].comfort_violations);
    EXPECT_EQ(first.results[h].steps, second.results[h].steps);
  }
}

// A delivery's fate is a pure function of the delivery, so the shard
// count — which changes the order the bus sees deliveries in, and the
// engine's schedule — cannot change a lossy run: flat and sharded chaos
// runs agree bitwise on every result and degradation counter.
TEST(GoldenChaos, ChaosRunIsIndependentOfShardCount) {
  const auto flat = run_chaos(42);
  EXPECT_GT(flat.fault_drops, 0u);
  EXPECT_GT(flat.crashed_items, 0u);
  EXPECT_GT(flat.quorum_met + flat.quorum_missed, 0u);

  for (const std::size_t shards : {2, 3}) {
    const auto sharded = run_chaos(42, shards);
    EXPECT_EQ(flat.accuracy, sharded.accuracy) << shards << " shards";
    EXPECT_EQ(flat.quorum_met, sharded.quorum_met) << shards << " shards";
    EXPECT_EQ(flat.quorum_missed, sharded.quorum_missed)
        << shards << " shards";
    EXPECT_EQ(flat.stale_rounds, sharded.stale_rounds) << shards << " shards";
    EXPECT_EQ(flat.fault_drops, sharded.fault_drops) << shards << " shards";
    EXPECT_EQ(flat.crashed_items, sharded.crashed_items)
        << shards << " shards";
    EXPECT_EQ(flat.late_msgs, sharded.late_msgs) << shards << " shards";
    ASSERT_EQ(flat.results.size(), sharded.results.size());
    for (std::size_t h = 0; h < flat.results.size(); ++h) {
      const ems::EpisodeResult& a = flat.results[h];
      const ems::EpisodeResult& b = sharded.results[h];
      EXPECT_EQ(a.total_reward, b.total_reward) << "home " << h;
      EXPECT_EQ(a.standby_kwh, b.standby_kwh) << "home " << h;
      EXPECT_EQ(a.saved_kwh, b.saved_kwh) << "home " << h;
      EXPECT_EQ(a.comfort_violations, b.comfort_violations) << "home " << h;
      EXPECT_EQ(a.violation_kwh, b.violation_kwh) << "home " << h;
      EXPECT_EQ(a.steps, b.steps) << "home " << h;
    }
  }
}

}  // namespace
}  // namespace pfdrl
