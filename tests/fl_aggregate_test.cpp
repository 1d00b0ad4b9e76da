#include "fl/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/dataset.hpp"
#include "forecast/forecaster.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace pfdrl::fl {
namespace {

// The owning convenience overload is gone (the exchange engine is the
// only production caller and uses the span form); tests wrap it once.
std::vector<double> avg_of(const std::vector<std::vector<double>>& inputs) {
  std::vector<std::span<const double>> views(inputs.begin(), inputs.end());
  std::vector<double> out(inputs.empty() ? 0 : inputs.front().size(), 0.0);
  fedavg(views, out);
  return out;
}

TEST(FedAvg, ExactAverage) {
  const std::vector<std::vector<double>> inputs = {{1.0, 2.0}, {3.0, 6.0}};
  const auto out = avg_of(inputs);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
}

TEST(FedAvg, SingleInputIdentity) {
  const std::vector<std::vector<double>> inputs = {{5.0, -1.0}};
  EXPECT_EQ(avg_of(inputs), inputs[0]);
}

TEST(FedAvg, EmptyThrows) {
  EXPECT_THROW(avg_of({}), std::invalid_argument);
}

TEST(FedAvg, SizeMismatchThrows) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  std::vector<std::span<const double>> views = {a, b};
  std::vector<double> out(2);
  EXPECT_THROW(fedavg(views, out), std::invalid_argument);
}

TEST(FedAvg, PermutationInvariance) {
  util::Rng rng(1);
  std::vector<std::vector<double>> inputs;
  for (int k = 0; k < 5; ++k) {
    std::vector<double> v(16);
    for (double& x : v) x = rng.normal();
    inputs.push_back(std::move(v));
  }
  const auto a = avg_of(inputs);
  std::reverse(inputs.begin(), inputs.end());
  const auto b = avg_of(inputs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-15);
}

TEST(FedAvg, LinearityProperty) {
  // fedavg(c * x_i) == c * fedavg(x_i).
  util::Rng rng(2);
  std::vector<std::vector<double>> inputs(3, std::vector<double>(8));
  for (auto& v : inputs) {
    for (double& x : v) x = rng.normal();
  }
  const auto base = avg_of(inputs);
  auto scaled = inputs;
  for (auto& v : scaled) {
    for (double& x : v) x *= 2.5;
  }
  const auto got = avg_of(scaled);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(got[i], base[i] * 2.5, 1e-12);
  }
}

TEST(FedAvg, OutMayAliasInput) {
  std::vector<double> a = {2.0, 4.0};
  const std::vector<double> b = {4.0, 0.0};
  std::vector<std::span<const double>> views = {a, b};
  fedavg(views, a);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
}

TEST(FedAvgPrefix, SuffixUntouched) {
  const std::vector<double> a = {1.0, 2.0, 100.0};
  const std::vector<double> b = {3.0, 4.0, 200.0};
  std::vector<std::span<const double>> views = {a, b};
  std::vector<double> out = {0.0, 0.0, -7.0};
  fedavg_prefix(views, 2, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  EXPECT_DOUBLE_EQ(out[2], -7.0);  // personalization slot untouched
}

TEST(FedAvgPrefix, FullPrefixEqualsFedAvg) {
  const std::vector<double> a = {1.0, 5.0};
  const std::vector<double> b = {3.0, 7.0};
  std::vector<std::span<const double>> views = {a, b};
  std::vector<double> out(2);
  fedavg_prefix(views, 2, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 6.0);
}

TEST(FedAvgPrefix, ZeroPrefixIsNoOp) {
  const std::vector<double> a = {1.0};
  std::vector<std::span<const double>> views = {a, a};
  std::vector<double> out = {42.0};
  fedavg_prefix(views, 0, out);
  EXPECT_DOUBLE_EQ(out[0], 42.0);
}

TEST(FedAvgPrefix, Validation) {
  const std::vector<double> a = {1.0};
  std::vector<std::span<const double>> views = {a};
  std::vector<double> out = {0.0};
  EXPECT_THROW(fedavg_prefix(views, 2, out), std::invalid_argument);
  EXPECT_THROW(fedavg_prefix({}, 0, out), std::invalid_argument);
  const std::vector<double> shorty;
  std::vector<std::span<const double>> bad = {a, shorty};
  EXPECT_THROW(fedavg_prefix(bad, 1, out), std::invalid_argument);
}

TEST(FedAvg, LrModelAveragingEqualsPredictionAveraging) {
  // For linear forecasters, averaging parameters IS averaging
  // predictions — the property that makes FedAvg exact rather than a
  // heuristic for the LR/SVR methods.
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 2;
  sc.neighborhood.min_devices = 3;
  sc.neighborhood.max_devices = 3;
  sc.trace.days = 1;
  const auto scenario = sim::Scenario::generate(sc);
  const auto& trace = scenario.traces[0].devices[1];

  data::WindowConfig w;
  w.window = 8;
  w.horizon = 5;
  auto a = forecast::make_forecaster(forecast::Method::kLr, w, 1);
  auto b = forecast::make_forecaster(forecast::Method::kLr, w, 1);
  forecast::TrainConfig tc;
  util::Rng rng(2);
  a->train(trace, 0, 700, tc, rng);
  b->train(trace, 700, 1400, tc, rng);

  // Average parameters into a third model.
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  std::vector<double> avg(pa.size());
  for (std::size_t i = 0; i < pa.size(); ++i) avg[i] = (pa[i] + pb[i]) / 2;
  auto c = forecast::make_forecaster(forecast::Method::kLr, w, 1);
  c->set_parameters(avg);

  // Compare in the model's (log-encoded) output space: re-encode the
  // decoded predictions to undo the nonlinear decode.
  const double scale = data::normalization_scale(trace.spec);
  const auto series_a = a->predict_series(trace, 100, 150);
  const auto series_b = b->predict_series(trace, 100, 150);
  const auto series_c = c->predict_series(trace, 100, 150);
  for (std::size_t i = 0; i < series_c.size(); ++i) {
    const double ea = data::encode_watts(series_a[i], scale, true);
    const double eb = data::encode_watts(series_b[i], scale, true);
    const double ec = data::encode_watts(series_c[i], scale, true);
    // decode clamps at 0, which breaks linearity only when a raw
    // prediction was negative; skip those.
    if (series_a[i] == 0.0 || series_b[i] == 0.0 || series_c[i] == 0.0) {
      continue;
    }
    ASSERT_NEAR(ec, (ea + eb) / 2, 1e-9);
  }
}

class FedAvgSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FedAvgSizes, MeanOfIdenticalIsIdentity) {
  util::Rng rng(GetParam());
  std::vector<double> v(GetParam() * 3 + 1);
  for (double& x : v) x = rng.normal();
  std::vector<std::vector<double>> inputs(GetParam() + 1, v);
  const auto out = avg_of(inputs);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(out[i], v[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FedAvgSizes, ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace pfdrl::fl
