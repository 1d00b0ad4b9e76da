#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "fl/baselines.hpp"
#include "fl/dfl.hpp"
#include "forecast/fused.hpp"
#include "sim/scenario.hpp"

namespace pfdrl::fl {
namespace {

std::vector<data::HouseholdTrace> small_traces(std::size_t homes = 3,
                                               std::size_t days = 2,
                                               std::uint64_t seed = 42) {
  sim::ScenarioConfig cfg;
  cfg.neighborhood.num_households = static_cast<std::uint32_t>(homes);
  cfg.neighborhood.min_devices = 3;
  cfg.neighborhood.max_devices = 4;
  cfg.neighborhood.seed = seed;
  cfg.trace.days = days;
  cfg.trace.seed = seed;
  return sim::Scenario::generate(cfg).traces;
}

DflConfig fast_dfl(AggregationMode mode) {
  DflConfig cfg;
  cfg.method = forecast::Method::kLr;  // cheap, deterministic
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  cfg.aggregation = mode;
  cfg.broadcast_period_hours = 12.0;
  return cfg;
}

TEST(DflTrainer, RejectsEmptyAndMismatched) {
  std::vector<data::HouseholdTrace> empty;
  EXPECT_THROW(DflTrainer(empty, fast_dfl(AggregationMode::kNone)),
               std::invalid_argument);
  auto traces = small_traces(2);
  traces[1].devices[0].watts.resize(100);
  traces[1].devices[0].modes.resize(100);
  EXPECT_THROW(DflTrainer(traces, fast_dfl(AggregationMode::kNone)),
               std::invalid_argument);
}

TEST(DflTrainer, RunExecutesExpectedRounds) {
  const auto traces = small_traces();
  DflTrainer trainer(traces, fast_dfl(AggregationMode::kDecentralized));
  const std::size_t rounds = trainer.run(0, data::kMinutesPerDay);
  EXPECT_EQ(rounds, 2u);  // 24h at beta = 12h
}

TEST(DflTrainer, TrainingImprovesOverUntrained) {
  const auto traces = small_traces(3, 2);
  DflTrainer trained(traces, fast_dfl(AggregationMode::kDecentralized));
  trained.run(0, data::kMinutesPerDay);
  DflTrainer untrained(traces, fast_dfl(AggregationMode::kDecentralized));
  const std::size_t eval_begin = data::kMinutesPerDay;
  EXPECT_GT(trained.mean_test_accuracy(eval_begin, traces[0].minutes()),
            untrained.mean_test_accuracy(eval_begin, traces[0].minutes()));
}

TEST(DflTrainer, DecentralizedMakesHomologousModelsEqual) {
  const auto traces = small_traces(3, 1);
  DflTrainer trainer(traces, fast_dfl(AggregationMode::kDecentralized));
  trainer.run(0, data::kMinutesPerDay);
  // After a round ending in aggregation, same-type forecasters across
  // homes must hold identical parameters.
  for (std::size_t h1 = 0; h1 < traces.size(); ++h1) {
    for (std::size_t d1 = 0; d1 < traces[h1].devices.size(); ++d1) {
      for (std::size_t h2 = h1 + 1; h2 < traces.size(); ++h2) {
        for (std::size_t d2 = 0; d2 < traces[h2].devices.size(); ++d2) {
          if (traces[h1].devices[d1].spec.type !=
              traces[h2].devices[d2].spec.type) {
            continue;
          }
          const auto p1 = trainer.forecaster(h1, d1).parameters();
          const auto p2 = trainer.forecaster(h2, d2).parameters();
          ASSERT_EQ(p1.size(), p2.size());
          for (std::size_t i = 0; i < p1.size(); ++i) {
            ASSERT_NEAR(p1[i], p2[i], 1e-12)
                << "home " << h1 << "/" << h2 << " dev type "
                << data::device_type_name(traces[h1].devices[d1].spec.type);
          }
        }
      }
    }
  }
}

TEST(DflTrainer, CentralizedMatchesDecentralizedResult) {
  // Same averaging math; only the communication pattern differs.
  const auto traces = small_traces(3, 1);
  DflTrainer mesh(traces, fast_dfl(AggregationMode::kDecentralized));
  DflTrainer star(traces, fast_dfl(AggregationMode::kCentralized));
  mesh.run(0, data::kMinutesPerDay);
  star.run(0, data::kMinutesPerDay);
  for (std::size_t h = 0; h < traces.size(); ++h) {
    for (std::size_t d = 0; d < traces[h].devices.size(); ++d) {
      const auto pm = mesh.forecaster(h, d).parameters();
      const auto ps = star.forecaster(h, d).parameters();
      for (std::size_t i = 0; i < pm.size(); ++i) {
        ASSERT_NEAR(pm[i], ps[i], 1e-12);
      }
    }
  }
}

TEST(DflTrainer, CentralizedCostsMoreWire) {
  const auto traces = small_traces(4, 1);
  DflTrainer mesh(traces, fast_dfl(AggregationMode::kDecentralized));
  DflTrainer star(traces, fast_dfl(AggregationMode::kCentralized));
  mesh.run(0, data::kMinutesPerDay);
  star.run(0, data::kMinutesPerDay);
  // The hub relay makes the star deliver more copies in total.
  EXPECT_GT(star.comm_stats().messages_delivered,
            mesh.comm_stats().messages_delivered / 2);
  EXPECT_GT(star.comm_stats().bytes_on_wire, 0u);
}

TEST(DflTrainer, LocalModeNoTraffic) {
  const auto traces = small_traces(3, 1);
  DflTrainer trainer(traces, fast_dfl(AggregationMode::kNone));
  trainer.run(0, data::kMinutesPerDay);
  EXPECT_EQ(trainer.comm_stats().messages_sent, 0u);
  EXPECT_EQ(trainer.comm_stats().bytes_on_wire, 0u);
}

TEST(DflTrainer, LocalModelsStayDifferent) {
  const auto traces = small_traces(3, 1);
  DflTrainer trainer(traces, fast_dfl(AggregationMode::kNone));
  trainer.run(0, data::kMinutesPerDay);
  // Find two homes sharing a device type; their local models should
  // differ (different data, no averaging).
  bool found_pair = false;
  for (std::size_t h1 = 0; h1 < traces.size() && !found_pair; ++h1) {
    for (std::size_t d1 = 0; d1 < traces[h1].devices.size(); ++d1) {
      for (std::size_t h2 = h1 + 1; h2 < traces.size(); ++h2) {
        for (std::size_t d2 = 0; d2 < traces[h2].devices.size(); ++d2) {
          if (traces[h1].devices[d1].spec.type !=
              traces[h2].devices[d2].spec.type) {
            continue;
          }
          found_pair = true;
          const auto p1 = trainer.forecaster(h1, d1).parameters();
          const auto p2 = trainer.forecaster(h2, d2).parameters();
          bool any_diff = false;
          for (std::size_t i = 0; i < p1.size(); ++i) {
            if (p1[i] != p2[i]) any_diff = true;
          }
          EXPECT_TRUE(any_diff);
        }
      }
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(DflTrainer, PerAgentAccuracyShape) {
  const auto traces = small_traces(3, 2);
  DflTrainer trainer(traces, fast_dfl(AggregationMode::kDecentralized));
  trainer.run(0, data::kMinutesPerDay);
  const auto per_agent =
      trainer.per_agent_accuracy(data::kMinutesPerDay, traces[0].minutes());
  ASSERT_EQ(per_agent.size(), traces.size());
  for (double acc : per_agent) {
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(CloudTrainer, OneModelPerType) {
  const auto traces = small_traces(3, 1);
  CloudConfig cfg;
  cfg.method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  CloudTrainer trainer(traces, cfg);
  trainer.run(0, data::kMinutesPerDay);
  // Every device type present maps to a model; absent types throw.
  for (const auto& home : traces) {
    for (const auto& dev : home.devices) {
      EXPECT_NO_THROW((void)trainer.model_for_type(dev.spec.type));
    }
  }
}

TEST(CloudTrainer, UnknownTypeThrows) {
  auto traces = small_traces(1, 1);
  // Remove any game console to guarantee absence... simpler: ask for a
  // type no home has by checking first.
  CloudConfig cfg;
  cfg.method = forecast::Method::kLr;
  CloudTrainer trainer(traces, cfg);
  bool has_console = false;
  for (const auto& d : traces[0].devices) {
    if (d.spec.type == data::DeviceType::kGameConsole) has_console = true;
  }
  if (!has_console) {
    EXPECT_THROW((void)trainer.model_for_type(data::DeviceType::kGameConsole),
                 std::out_of_range);
  }
}

TEST(CloudTrainer, RawUploadAccounting) {
  const auto traces = small_traces(2, 1);
  CloudConfig cfg;
  cfg.method = forecast::Method::kLr;
  CloudTrainer trainer(traces, cfg);
  EXPECT_EQ(trainer.raw_bytes_uploaded(), 0u);
  trainer.run(0, data::kMinutesPerDay);
  std::uint64_t expected = 0;
  for (const auto& home : traces) {
    expected += home.devices.size() * data::kMinutesPerDay * 8;
  }
  EXPECT_EQ(trainer.raw_bytes_uploaded(), expected);
}

TEST(CloudTrainer, AccuracyInRange) {
  const auto traces = small_traces(3, 2);
  CloudConfig cfg;
  cfg.method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  CloudTrainer trainer(traces, cfg);
  trainer.run(0, data::kMinutesPerDay);
  const double acc =
      trainer.mean_test_accuracy(data::kMinutesPerDay, traces[0].minutes());
  EXPECT_GT(acc, 0.3);
  EXPECT_LE(acc, 1.0);
}

TEST(DflTrainer, DeterministicAcrossRunsDespiteThreadPool) {
  // Training fans out on the global thread pool; per-job RNGs are forked
  // from (seed, round, home, device), so two runs must produce bitwise
  // identical models regardless of scheduling.
  const auto traces = small_traces(3, 2);
  const auto run = [&] {
    DflTrainer trainer(traces, fast_dfl(AggregationMode::kDecentralized));
    trainer.run(0, data::kMinutesPerDay);
    std::vector<double> all;
    for (std::size_t h = 0; h < traces.size(); ++h) {
      for (std::size_t d = 0; d < traces[h].devices.size(); ++d) {
        const auto p = trainer.forecaster(h, d).parameters();
        all.insert(all.end(), p.begin(), p.end());
      }
    }
    return all;
  };
  EXPECT_EQ(run(), run());
}

// --- Fused training (docs/fused_training.md) -----------------------------

namespace {

/// Every forecaster parameter of every (home, device), flattened.
std::vector<double> all_parameters(const DflTrainer& trainer,
                                   const std::vector<data::HouseholdTrace>& traces) {
  std::vector<double> all;
  for (std::size_t h = 0; h < traces.size(); ++h) {
    for (std::size_t d = 0; d < traces[h].devices.size(); ++d) {
      const auto p = trainer.forecaster(h, d).parameters();
      all.insert(all.end(), p.begin(), p.end());
    }
  }
  return all;
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

// Fingerprints recorded from the per-job loop (one Forecaster::train per
// (home, device), no grouping), which fused groups replaced as the only
// dispatch. Grouping never moves a bit, so every shard count and pool
// size must reproduce them. The four federated ones were re-recorded
// when averaging moved to ascending sender order (docs/robustness.md);
// the Local baseline never aggregates and kept its value.
constexpr std::uint64_t kGoldenBp = 0x1cec05953fd9e215ULL;
constexpr std::uint64_t kGoldenLstm = 0x30bf38aca62c8739ULL;
constexpr std::uint64_t kGoldenGru = 0xd5532cbd27ebc3d6ULL;
constexpr std::uint64_t kGoldenLocalLstm = 0x5930e2a86c04199fULL;
constexpr std::uint64_t kGoldenLr = 0xd78f0caffc3aecccULL;

}  // namespace

// The fused-training contract at the DFL layer: a round's groups are
// derived (one per shard; one per pool worker when unsharded), and the
// trained parameters match the per-job golden bitwise for every NN
// method and shard count. tests/CMakeLists.txt reruns this grid under
// PFDRL_POOL_WORKERS=1/2/3 (quick_suite_pool4 covers 4).
TEST(DflTrainer, FusedGroupsMatchPerJobGolden) {
  const auto traces = small_traces(5, 2);
  const struct {
    forecast::Method method;
    std::uint64_t golden;
  } cases[] = {{forecast::Method::kBp, kGoldenBp},
               {forecast::Method::kLstm, kGoldenLstm},
               {forecast::Method::kGru, kGoldenGru}};
  for (const auto& c : cases) {
    auto cfg = fast_dfl(AggregationMode::kDecentralized);
    cfg.method = c.method;
    cfg.train.epochs = 2;         // keep the recurrent methods quick
    cfg.max_round_samples = 120;  // (explicit values win over defaults)
    for (const std::size_t shards : {0, 2, 3, 5}) {
      cfg.shards = shards;
      DflTrainer trainer(traces, cfg);
      trainer.run(0, data::kMinutesPerDay);
      EXPECT_EQ(fnv1a(all_parameters(trainer, traces)), c.golden)
          << forecast::method_name(c.method) << " shards " << shards;
    }
  }
  // The Local baseline trains on every window (no sampling cap).
  auto local = fast_dfl(AggregationMode::kNone);
  local.method = forecast::Method::kLstm;
  local.train.epochs = 1;
  for (const std::size_t shards : {0, 2}) {
    local.shards = shards;
    DflTrainer trainer(traces, local);
    trainer.run(0, data::kMinutesPerDay);
    EXPECT_EQ(fnv1a(all_parameters(trainer, traces)), kGoldenLocalLstm)
        << "local LSTM shards " << shards;
  }
}

// Closed-form methods have no minibatch loop, so their jobs train one by
// one through Forecaster::train and, with the forked RNGs handed over
// unconsumed, reproduce the per-job golden.
TEST(DflTrainer, ClosedFormJobsTrainAloneBitwise) {
  const auto traces = small_traces(4, 1);
  for (const std::size_t shards : {0, 2}) {
    auto cfg = fast_dfl(AggregationMode::kDecentralized);  // kLr
    cfg.shards = shards;
    DflTrainer trainer(traces, cfg);
    trainer.run(0, data::kMinutesPerDay);
    EXPECT_EQ(fnv1a(all_parameters(trainer, traces)), kGoldenLr)
        << "shards " << shards;
  }
}

namespace {

/// One LSTM/GRU/BP forecaster per (home, device) of `traces`.
std::vector<std::unique_ptr<forecast::Forecaster>> make_models(
    forecast::Method method, const std::vector<data::HouseholdTrace>& traces,
    const data::WindowConfig& window) {
  std::vector<std::unique_ptr<forecast::Forecaster>> models;
  for (const auto& home : traces) {
    for (std::size_t d = 0; d < home.devices.size(); ++d) {
      models.push_back(forecast::make_forecaster(method, window, 1000 + d));
    }
  }
  return models;
}

}  // namespace

// Group of N against groups of one at the forecast layer: one fused
// group over traces of unequal length (so some jobs run out of batches
// early) trains every model and reports every loss bitwise as the solo
// Forecaster::train — a one-job group — does.
TEST(FusedForecastTrainer, MatchesPerJobTrainBitwise) {
  auto traces = small_traces(2, 1);
  const auto longer = small_traces(2, 2, /*seed=*/9);
  traces.insert(traces.end(), longer.begin(), longer.end());
  const data::WindowConfig window = fast_dfl(AggregationMode::kNone).window;
  forecast::TrainConfig train;
  train.epochs = 2;
  train.stride = 3;
  const std::size_t begin = 600;
  const std::size_t end = 2 * data::kMinutesPerDay;
  for (const auto method :
       {forecast::Method::kBp, forecast::Method::kLstm, forecast::Method::kGru}) {
    auto fused = make_models(method, traces, window);
    auto solo = make_models(method, traces, window);
    std::vector<util::Rng> rngs;
    std::vector<forecast::FusedTrainJob> jobs;
    std::vector<double> solo_loss;
    std::size_t m = 0;
    for (const auto& home : traces) {
      for (const auto& dev : home.devices) {
        rngs.emplace_back(50 + m);
        util::Rng solo_rng(50 + m);
        solo_loss.push_back(solo[m]->train(dev, begin, end, train, solo_rng));
        ++m;
      }
    }
    m = 0;
    for (const auto& home : traces) {
      for (const auto& dev : home.devices) {
        jobs.push_back({fused[m].get(), &dev, &rngs[m], -1.0});
        ++m;
      }
    }
    forecast::FusedForecastTrainer trainer;
    trainer.train(jobs, begin, end, train);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto a = fused[j]->parameters();
      const auto b = solo[j]->parameters();
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << forecast::method_name(method) << " job " << j;
      EXPECT_EQ(jobs[j].loss, solo_loss[j])
          << forecast::method_name(method) << " job " << j;
    }
  }
}

// A group is one minibatch method: a closed-form group and a mixed group
// are refused before any job is touched.
TEST(FusedForecastTrainer, GroupIsOneMinibatchMethod) {
  const auto traces = small_traces(1, 1);
  const data::WindowConfig window = fast_dfl(AggregationMode::kNone).window;
  const data::DeviceTrace& dev = traces[0].devices[0];
  auto lr = forecast::make_forecaster(forecast::Method::kLr, window, 1);
  auto lstm = forecast::make_forecaster(forecast::Method::kLstm, window, 1);
  auto gru = forecast::make_forecaster(forecast::Method::kGru, window, 1);
  const auto params = [](const forecast::Forecaster& f) {
    return std::vector<double>(f.parameters().begin(), f.parameters().end());
  };
  const std::vector<double> lstm_before = params(*lstm);
  util::Rng rng(1);
  forecast::FusedForecastTrainer trainer;
  std::vector<forecast::FusedTrainJob> closed_form = {
      {lr.get(), &dev, &rng, 0.0}};
  EXPECT_THROW(trainer.train(closed_form, 0, data::kMinutesPerDay, {}),
               std::invalid_argument);
  std::vector<forecast::FusedTrainJob> mixed = {{lstm.get(), &dev, &rng, 0.0},
                                                {gru.get(), &dev, &rng, 0.0}};
  EXPECT_THROW(trainer.train(mixed, 0, data::kMinutesPerDay, {}),
               std::invalid_argument);
  EXPECT_EQ(params(*lstm), lstm_before);
}

TEST(DflTrainer, SmallBatchCapOnlyAppliesToFederatedModes) {
  // The Local baseline trains on everything (Table 2: no small-batch
  // column); with BP this shows as a measurable accuracy edge for Local
  // over what a capped run of the same data could learn per round.
  auto cfg = fast_dfl(AggregationMode::kNone);
  cfg.max_round_samples = 10;  // would cripple training if applied
  const auto traces = small_traces(2, 2);
  DflTrainer local(traces, cfg);
  local.run(0, data::kMinutesPerDay);
  const double acc =
      local.mean_test_accuracy(data::kMinutesPerDay, traces[0].minutes());
  // LR on full data comfortably beats the ~0.3 an effectively untrained
  // model scores.
  EXPECT_GT(acc, 0.35);
}

TEST(AggregationModeNames, Stable) {
  EXPECT_STREQ(aggregation_mode_name(AggregationMode::kDecentralized),
               "decentralized");
  EXPECT_STREQ(aggregation_mode_name(AggregationMode::kCentralized),
               "centralized");
  EXPECT_STREQ(aggregation_mode_name(AggregationMode::kNone), "local");
}

}  // namespace
}  // namespace pfdrl::fl
