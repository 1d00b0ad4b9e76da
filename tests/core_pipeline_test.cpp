#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/episode.hpp"
#include "fl/baselines.hpp"
#include "fl/dfl.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace pfdrl::core {
namespace {

sim::Scenario tiny() {
  auto cfg = sim::tiny_scenario(42);
  return sim::Scenario::generate(cfg);
}

PipelineConfig tiny_pipeline(EmsMethod method) {
  auto cfg = sim::fast_pipeline(method, 42);
  cfg.forecast_method = forecast::Method::kLr;  // cheapest
  cfg.dqn.hidden = {12, 12};
  return cfg;
}

TEST(Pipeline, RejectsEmptyTraces) {
  std::vector<data::HouseholdTrace> empty;
  EXPECT_THROW(EmsPipeline(empty, tiny_pipeline(EmsMethod::kPfdrl)),
               std::invalid_argument);
}

TEST(Pipeline, ProtectedDevicesHaveNoAgent) {
  const auto scenario = tiny();
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(EmsMethod::kLocal));
  for (std::size_t h = 0; h < scenario.traces.size(); ++h) {
    for (std::size_t d = 0; d < scenario.traces[h].devices.size(); ++d) {
      if (scenario.traces[h].devices[d].spec.protected_device) {
        EXPECT_THROW((void)pipeline.agent(h, d), std::out_of_range);
      } else {
        EXPECT_NO_THROW((void)pipeline.agent(h, d));
      }
    }
  }
}

TEST(Pipeline, SharesEmsPlansOnlyForFrlAndPfdrl) {
  EXPECT_FALSE(shares_ems_plans(EmsMethod::kLocal));
  EXPECT_FALSE(shares_ems_plans(EmsMethod::kCloud));
  EXPECT_FALSE(shares_ems_plans(EmsMethod::kFl));
  EXPECT_TRUE(shares_ems_plans(EmsMethod::kFrl));
  EXPECT_TRUE(shares_ems_plans(EmsMethod::kPfdrl));
}

class PipelineAllMethods : public ::testing::TestWithParam<EmsMethod> {};

TEST_P(PipelineAllMethods, EndToEndSmoke) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(GetParam()));
  pipeline.train_forecasters(0, day);
  const double acc = pipeline.forecast_accuracy(day, 2 * day);
  EXPECT_GT(acc, 0.2);
  EXPECT_LE(acc, 1.0);
  pipeline.train_ems(day, 2 * day);
  const auto results = pipeline.evaluate(day, 2 * day);
  ASSERT_EQ(results.size(), scenario.num_homes());
  for (const auto& r : results) {
    EXPECT_GT(r.steps, 0u);
    EXPECT_GE(r.standby_kwh, 0.0);
    EXPECT_GE(r.saved_kwh, 0.0);
    EXPECT_LE(r.saved_kwh, r.standby_kwh + 1e-9);
  }
}

TEST_P(PipelineAllMethods, CommStatsMatchMethod) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(GetParam()));
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);

  const auto fc = pipeline.forecast_comm_stats();
  const auto drl = pipeline.drl_comm_stats();
  switch (GetParam()) {
    case EmsMethod::kLocal:
      EXPECT_EQ(fc.messages_sent, 0u);
      EXPECT_EQ(drl.messages_sent, 0u);
      break;
    case EmsMethod::kCloud:
      // Cloud ships raw data, not parameters; no bus traffic either way.
      EXPECT_EQ(fc.messages_sent, 0u);
      EXPECT_EQ(drl.messages_sent, 0u);
      break;
    case EmsMethod::kFl:
      EXPECT_GT(fc.messages_sent, 0u);
      EXPECT_EQ(drl.messages_sent, 0u);
      break;
    case EmsMethod::kFrl:
      EXPECT_GT(fc.messages_sent, 0u);
      EXPECT_GT(drl.messages_sent, 0u);
      break;
    case EmsMethod::kPfdrl:
      EXPECT_GT(fc.messages_sent, 0u);
      EXPECT_GT(drl.messages_sent, 0u);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, PipelineAllMethods,
                         ::testing::Values(EmsMethod::kLocal,
                                           EmsMethod::kCloud, EmsMethod::kFl,
                                           EmsMethod::kFrl,
                                           EmsMethod::kPfdrl));

TEST(Pipeline, PfdrlBroadcastsLessDrlDataThanFrl) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;

  auto frl_cfg = tiny_pipeline(EmsMethod::kFrl);
  auto pfdrl_cfg = tiny_pipeline(EmsMethod::kPfdrl);
  pfdrl_cfg.alpha = 1;

  EmsPipeline frl(scenario.traces, frl_cfg);
  EmsPipeline pfdrl(scenario.traces, pfdrl_cfg);
  frl.train_forecasters(0, day);
  pfdrl.train_forecasters(0, day);
  frl.train_ems(day, 2 * day);
  pfdrl.train_ems(day, 2 * day);

  EXPECT_LT(pfdrl.drl_comm_stats().bytes_on_wire,
            frl.drl_comm_stats().bytes_on_wire);
}

TEST(Pipeline, EvaluateSavingsDollarsShape) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(EmsMethod::kPfdrl));
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);
  const data::FixedTariff tariff;
  const auto dollars =
      pipeline.evaluate_savings_dollars(day, 2 * day, tariff, 0);
  ASSERT_EQ(dollars.size(), scenario.num_homes());
  for (double d : dollars) EXPECT_GE(d, 0.0);
}

TEST(Pipeline, SecureAggregationMatchesPlainForecasts) {
  // End-to-end: the PFDRL pipeline with masked DFL broadcasts produces
  // the same forecast accuracy as the plain one (masks cancel in the
  // aggregate).
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  auto plain_cfg = tiny_pipeline(EmsMethod::kPfdrl);
  auto secure_cfg = plain_cfg;
  secure_cfg.secure_aggregation = true;
  EmsPipeline plain(scenario.traces, plain_cfg);
  EmsPipeline secure(scenario.traces, secure_cfg);
  plain.train_forecasters(0, day);
  secure.train_forecasters(0, day);
  EXPECT_NEAR(plain.forecast_accuracy(day, 2 * day),
              secure.forecast_accuracy(day, 2 * day), 1e-6);
}

TEST(Pipeline, LearnCadenceAndAccountingFollowMeterInterval) {
  // Regression for the learn-cadence/round-accounting bug. The EMS loop
  // advances one meter interval per decision step; with a 15-minute meter
  // a 240-minute γ round is 16 steps, not 240. The old per-minute loop
  // pushed 240 transitions per device per round, and a naive
  // `(begin + t) % learn_every == 0` gate over strided minute offsets
  // aliases against the stride: with learn_every = 40 it only fires when
  // t is a multiple of lcm(40, 15) = 120 — 2 learns per round instead of
  // the 6 a 40-minute cadence promises. The interval-aware gate
  // `(begin + t) % learn_every < stride` fires exactly 240/40 = 6 times.
  const auto scenario = tiny();
  auto cfg = tiny_pipeline(EmsMethod::kLocal);
  cfg.meter_interval_minutes = 15;
  cfg.learn_every_minutes = 40;
  cfg.gamma_hours = 4.0;  // 240-minute rounds
  obs::MetricsRegistry reg;  // private sink: keep the assertions exact
  cfg.metrics = &reg;

  std::size_t actionable = 0;
  for (const auto& home : scenario.traces) {
    for (const auto& dev : home.devices) {
      if (!dev.spec.protected_device) ++actionable;
    }
  }
  ASSERT_GT(actionable, 0u);

  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, cfg);
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, day + 240);  // exactly one γ round

  EXPECT_EQ(reg.counter("ems.rounds").value(), 1u);
  EXPECT_EQ(reg.counter("ems.env_steps").value(), actionable * 16);
  EXPECT_EQ(reg.counter("ems.learn_calls").value(), actionable * 6);
  for (std::size_t h = 0; h < scenario.traces.size(); ++h) {
    for (std::size_t d = 0; d < scenario.traces[h].devices.size(); ++d) {
      if (scenario.traces[h].devices[d].spec.protected_device) continue;
      EXPECT_EQ(pipeline.agent(h, d).replay().total_pushed(), 16u);
    }
  }

  // A second round doubles every per-round count — no drift, no aliasing
  // against the new begin offset (1680 % 40 = 0 still, but 1680 % 15 = 0
  // keeps the stride phase identical).
  pipeline.train_ems(day + 240, day + 480);
  EXPECT_EQ(reg.counter("ems.rounds").value(), 2u);
  EXPECT_EQ(reg.counter("ems.env_steps").value(), actionable * 32);
  EXPECT_EQ(reg.counter("ems.learn_calls").value(), actionable * 12);
  EXPECT_EQ(reg.series("ems.epsilon_series").size(), 2u);
  EXPECT_EQ(reg.histogram("ems.round_seconds").count(), 2u);
}

/// FNV-1a over the values' bit patterns: a run's bitwise fingerprint.
std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xffU)) * 1099511628211ULL;
    }
  }
  return h;
}

// The lockstep-group contract end-to-end (docs/fused_training.md): every
// round runs in groups — one per shard, or one per pool worker when
// unsharded — whose forecast batches and EMS learn ticks run one member
// step per home. Every agent parameter and evaluation number must match
// the fingerprint recorded from the per-home pipeline, at every shard
// count here and every pool size through the PFDRL_POOL_WORKERS reruns
// in tests/CMakeLists.txt.
TEST(Pipeline, FusedGroupsMatchPerHomeGolden) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  const auto run = [&](std::size_t shards, forecast::Method fm) {
    auto cfg = tiny_pipeline(EmsMethod::kPfdrl);
    cfg.forecast_method = fm;
    cfg.shards = shards;
    EmsPipeline pipeline(scenario.traces, cfg);
    pipeline.train_forecasters(0, day);
    pipeline.train_ems(day, 2 * day);
    std::vector<double> fingerprint;
    for (std::size_t h = 0; h < scenario.traces.size(); ++h) {
      for (std::size_t d = 0; d < scenario.traces[h].devices.size(); ++d) {
        const auto* agent = pipeline.agent_ptr(h, d);
        if (agent == nullptr) continue;
        const auto p = agent->network().parameters();
        fingerprint.insert(fingerprint.end(), p.begin(), p.end());
      }
    }
    for (const auto& r : pipeline.evaluate(day, 2 * day)) {
      fingerprint.push_back(r.total_reward);
    }
    return fnv1a(fingerprint);
  };
  // kLr forecasts train job by job (closed form); kBp forecasts train in
  // lockstep groups. The EMS rounds run in lockstep either way.
  for (const std::size_t shards : {0, 2, 3}) {
    EXPECT_EQ(run(shards, forecast::Method::kLr), 0x5926488e54b7658aULL)
        << "LR shards " << shards;
    EXPECT_EQ(run(shards, forecast::Method::kBp), 0x5317c3ac5bcefacbULL)
        << "BP shards " << shards;
  }
}

// The evaluation rollout stacks an episode's states into batched
// predicts; every minute's action must equal the batch-1 act_greedy.
TEST(EpisodeRunner, BatchedGreedyMatchesActGreedyEveryMinute) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  std::size_t dev = 0;
  while (scenario.traces[0].devices[dev].spec.protected_device) ++dev;
  const auto& trace = scenario.traces[0].devices[dev];
  std::vector<double> forecast(trace.watts.begin() + day,
                               trace.watts.begin() + 2 * day);
  const ems::EmsEnvironment env(trace, std::move(forecast), day);
  ASSERT_EQ(env.length(), day);
  rl::DqnConfig qc;  // the paper's 8 x 100 Q-network
  qc.state_dim = ems::EmsEnvironment::kStateDim;
  qc.num_actions = ems::kNumActions;
  const rl::DqnAgent agent(qc);
  const std::vector<int> actions = EpisodeRunner::greedy_actions(agent, env);
  ASSERT_EQ(actions.size(), day);
  for (std::size_t i = 0; i < day; ++i) {
    ASSERT_EQ(actions[i], agent.act_greedy(env.state_at(i))) << "minute " << i;
  }
}

// forecast_accuracy scores the episode runner's cached series: it equals
// the trainers' mean_test_accuracy bit for bit whether or not evaluate()
// has already predicted the day, and after evaluate() every actionable
// device is a cache hit.
TEST(Pipeline, ForecastAccuracyReadsEpisodeCacheBitwise) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  std::size_t devices = 0, actionable = 0;
  for (const auto& home : scenario.traces) {
    for (const auto& dev : home.devices) {
      ++devices;
      if (!dev.spec.protected_device) ++actionable;
    }
  }
  for (const auto method : {EmsMethod::kPfdrl, EmsMethod::kCloud}) {
    for (const auto fm : {forecast::Method::kLr, forecast::Method::kLstm}) {
      auto cfg = tiny_pipeline(method);
      cfg.forecast_method = fm;
      cfg.forecast_train.epochs = 1;
      obs::MetricsRegistry reg;
      cfg.metrics = &reg;
      EmsPipeline pipeline(scenario.traces, cfg);
      pipeline.train_forecasters(0, day);
      const double expect =
          pipeline.cloud_trainer() != nullptr
              ? pipeline.cloud_trainer()->mean_test_accuracy(day, 2 * day)
              : pipeline.dfl_trainer()->mean_test_accuracy(day, 2 * day);
      const auto& hits = reg.counter("episode.forecast_cache_hits");
      const auto& misses = reg.counter("episode.forecast_cache_misses");

      EXPECT_EQ(pipeline.forecast_accuracy(day, 2 * day), expect);
      EXPECT_EQ(hits.value(), 0u);
      EXPECT_EQ(misses.value(), devices);

      pipeline.invalidate_forecast_cache();
      (void)pipeline.evaluate(day, 2 * day);
      EXPECT_EQ(misses.value(), devices + actionable);
      EXPECT_EQ(pipeline.forecast_accuracy(day, 2 * day), expect);
      EXPECT_EQ(hits.value(), actionable);
      EXPECT_EQ(misses.value(), 2 * devices);
    }
  }
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  const auto run = [&] {
    EmsPipeline pipeline(scenario.traces, tiny_pipeline(EmsMethod::kPfdrl));
    pipeline.train_forecasters(0, day);
    pipeline.train_ems(day, 2 * day);
    const auto results = pipeline.evaluate(day, 2 * day);
    double total = 0.0;
    for (const auto& r : results) total += r.total_reward;
    return total;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace pfdrl::core
