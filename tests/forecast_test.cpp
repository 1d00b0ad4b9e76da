#include "forecast/forecaster.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "data/household.hpp"
#include "forecast/lr.hpp"
#include "forecast/metrics.hpp"

namespace pfdrl::forecast {
namespace {

data::DeviceTrace sample_trace(std::size_t days = 3, std::uint64_t seed = 42) {
  data::NeighborhoodConfig nc;
  nc.num_households = 1;
  nc.min_devices = 5;
  nc.max_devices = 5;
  nc.seed = seed;
  const auto home = data::make_neighborhood(nc)[0];
  data::TraceConfig tc;
  tc.days = days;
  tc.seed = seed;
  const auto trace = data::generate_household_trace(home, tc);
  // Pick a user device (not protected) for more interesting dynamics.
  for (const auto& d : trace.devices) {
    if (!d.spec.protected_device) return d;
  }
  return trace.devices[0];
}

data::WindowConfig small_window() {
  data::WindowConfig w;
  w.window = 8;
  w.horizon = 5;
  return w;
}

class AllMethods : public ::testing::TestWithParam<Method> {};

TEST_P(AllMethods, TrainsAndPredictsReasonably) {
  const auto trace = sample_trace();
  auto model = make_forecaster(GetParam(), small_window(), 7);
  TrainConfig tc;
  const bool recurrent =
      GetParam() == Method::kLstm || GetParam() == Method::kGru;
  tc.epochs = recurrent ? 4 : 0;  // cap BPTT cost
  util::Rng rng(1);
  model->train(trace, 0, 2 * data::kMinutesPerDay, tc, rng);
  const auto result =
      evaluate(*model, trace, 2 * data::kMinutesPerDay, trace.minutes());
  EXPECT_GT(result.samples, 1000u) << model->name();
  EXPECT_GT(result.mean_accuracy, 0.45) << model->name();
}

TEST_P(AllMethods, PredictSeriesAlignedLength) {
  const auto trace = sample_trace();
  auto model = make_forecaster(GetParam(), small_window(), 7);
  const std::size_t begin = 2 * data::kMinutesPerDay;
  const std::size_t end = begin + 200;
  const auto preds = model->predict_series(trace, begin, end);
  EXPECT_EQ(preds.size(), 200u);
  for (double p : preds) EXPECT_GE(p, 0.0);
}

TEST_P(AllMethods, CloneIsIndependent) {
  const auto trace = sample_trace();
  auto model = make_forecaster(GetParam(), small_window(), 7);
  TrainConfig tc;
  tc.epochs = 1;
  util::Rng rng(2);
  model->train(trace, 0, data::kMinutesPerDay, tc, rng);
  auto clone = model->clone();
  ASSERT_EQ(clone->parameters().size(), model->parameters().size());
  // Training the clone must not affect the original.
  const std::vector<double> before(model->parameters().begin(),
                                   model->parameters().end());
  clone->train(trace, 0, data::kMinutesPerDay, tc, rng);
  const auto after = model->parameters();
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(after[i], before[i]);
  }
}

TEST_P(AllMethods, ParametersRoundTripChangesBehavior) {
  const auto trace = sample_trace();
  auto a = make_forecaster(GetParam(), small_window(), 7);
  auto b = make_forecaster(GetParam(), small_window(), 7);
  TrainConfig tc;
  tc.epochs = 1;
  util::Rng rng(3);
  a->train(trace, 0, data::kMinutesPerDay, tc, rng);
  // Copy a's parameters into b: predictions must now match a's.
  const auto params = a->parameters();
  b->set_parameters(params);
  const auto pa = a->predict_series(trace, 2000, 2100);
  const auto pb = b->predict_series(trace, 2000, 2100);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_DOUBLE_EQ(pa[i], pb[i]);
}

// The exchange reads every model through a span of its parameter buffer
// taken once per run (fl::StagedExchange), so neither training nor
// set_parameters may move the buffer.
TEST_P(AllMethods, TrainKeepsTheParameterBuffer) {
  const auto trace = sample_trace();
  auto model = make_forecaster(GetParam(), small_window(), 7);
  const double* buffer = model->parameters().data();
  TrainConfig tc;
  tc.epochs = 1;
  util::Rng rng(4);
  model->train(trace, 0, data::kMinutesPerDay, tc, rng);
  EXPECT_EQ(model->parameters().data(), buffer) << model->name();
  const std::vector<double> zeros(model->parameters().size(), 0.0);
  model->set_parameters(zeros);
  EXPECT_EQ(model->parameters().data(), buffer) << model->name();
}

TEST_P(AllMethods, SetParametersSizeMismatchThrows) {
  auto model = make_forecaster(GetParam(), small_window(), 7);
  EXPECT_THROW(model->set_parameters(std::vector<double>(3)),
               std::invalid_argument);
}

TEST_P(AllMethods, SameSeedSameInitialParameters) {
  auto a = make_forecaster(GetParam(), small_window(), 99);
  auto b = make_forecaster(GetParam(), small_window(), 99);
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
}

INSTANTIATE_TEST_SUITE_P(Methods, AllMethods,
                         ::testing::Values(Method::kLr, Method::kSvr,
                                           Method::kBp, Method::kLstm,
                                           Method::kGru));

TEST(MethodNames, PaperLabels) {
  EXPECT_STREQ(method_name(Method::kLr), "LR");
  EXPECT_STREQ(method_name(Method::kSvr), "SVM");
  EXPECT_STREQ(method_name(Method::kBp), "BP");
  EXPECT_STREQ(method_name(Method::kLstm), "LSTM");
  EXPECT_STREQ(method_name(Method::kGru), "GRU");
}

TEST(ResolveTrainConfig, FillsZeroedFields) {
  TrainConfig base;  // all zero -> auto
  const auto lstm = resolve_train_config(Method::kLstm, base);
  EXPECT_GT(lstm.epochs, 0u);
  EXPECT_GT(lstm.learning_rate, 0.0);
  EXPECT_GT(lstm.stride, 0u);
}

TEST(ResolveTrainConfig, ExplicitValuesWin) {
  TrainConfig base;
  base.epochs = 3;
  base.learning_rate = 0.5;
  base.stride = 7;
  const auto got = resolve_train_config(Method::kBp, base);
  EXPECT_EQ(got.epochs, 3u);
  EXPECT_DOUBLE_EQ(got.learning_rate, 0.5);
  EXPECT_EQ(got.stride, 7u);
}

TEST(Cholesky, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5].
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> b = {10, 8};
  ASSERT_TRUE(cholesky_solve(a, 2, b));
  EXPECT_NEAR(b[0], 1.75, 1e-12);
  EXPECT_NEAR(b[1], 1.5, 1e-12);
}

TEST(Cholesky, RejectsNonSpd) {
  std::vector<double> a = {1, 2, 2, 1};  // indefinite
  std::vector<double> b = {1, 1};
  EXPECT_FALSE(cholesky_solve(a, 2, b));
}

TEST(LrForecaster, LearnsLinearSignalExactly) {
  // Trace where watts follow a noiseless linear AR pattern: LR should
  // achieve near-perfect accuracy.
  data::DeviceTrace trace;
  trace.spec.type = data::DeviceType::kTv;
  trace.spec.standby_watts = 5.0;
  trace.spec.on_watts = 100.0;
  const std::size_t n = 3000;
  trace.watts.resize(n);
  trace.modes.assign(n, data::DeviceMode::kOn);
  for (std::size_t m = 0; m < n; ++m) {
    trace.watts[m] = 60.0 + 20.0 * std::sin(m * 0.01);
  }
  data::WindowConfig w;
  w.window = 8;
  w.horizon = 1;
  w.log_scale = false;
  LrForecaster lr(w);
  TrainConfig tc;
  tc.stride = 1;
  util::Rng rng(4);
  lr.train(trace, 0, 2000, tc, rng);
  const auto result = evaluate(lr, trace, 2000, 3000);
  EXPECT_GT(result.mean_accuracy, 0.99);
}

TEST(Metrics, AccuracySamplesMatchEvaluate) {
  const auto trace = sample_trace();
  auto model = make_forecaster(Method::kLr, small_window(), 7);
  TrainConfig tc;
  util::Rng rng(5);
  model->train(trace, 0, 2 * data::kMinutesPerDay, tc, rng);
  const std::size_t begin = 2 * data::kMinutesPerDay;
  const auto samples = accuracy_samples(*model, trace, begin, trace.minutes());
  const auto result = evaluate(*model, trace, begin, trace.minutes());
  ASSERT_EQ(samples.size(), result.samples);
  double mean = 0.0;
  for (double s : samples) mean += s;
  mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mean, result.mean_accuracy, 1e-9);
}

TEST(Metrics, AccuracyByHourCoversDay) {
  const auto trace = sample_trace();
  auto model = make_forecaster(Method::kLr, small_window(), 7);
  TrainConfig tc;
  util::Rng rng(6);
  model->train(trace, 0, 2 * data::kMinutesPerDay, tc, rng);
  const auto by_hour =
      accuracy_by_hour(*model, trace, 2 * data::kMinutesPerDay, trace.minutes());
  for (std::size_t h = 0; h < 24; ++h) {
    EXPECT_GE(by_hour[h], 0.0);
    EXPECT_LE(by_hour[h], 1.0);
  }
}

TEST(Factory, AllMethodsConstructible) {
  for (auto m : {Method::kLr, Method::kSvr, Method::kBp, Method::kLstm,
                 Method::kGru}) {
    auto model = make_forecaster(m, small_window(), 1);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->method(), m);
    EXPECT_GT(model->parameters().size(), 0u);
  }
}

}  // namespace
}  // namespace pfdrl::forecast
