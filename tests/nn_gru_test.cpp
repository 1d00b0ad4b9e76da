#include "nn/gru.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/fused.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {
namespace {

std::vector<Matrix> random_sequence(std::size_t steps, std::size_t batch,
                                    std::size_t feat, util::Rng& rng) {
  std::vector<Matrix> xs(steps, Matrix(batch, feat));
  for (auto& x : xs) {
    for (double& v : x.data()) v = rng.normal(0.0, 0.5);
  }
  return xs;
}

/// One training step of `net` alone: a one-member FusedGru batch over
/// all rows of (xs, y). Returns the batch loss.
double train_alone(FusedGru& engine, GruRegressor& net,
                   const std::vector<Matrix>& xs, const Matrix& y,
                   LossKind loss, Optimizer& opt, double clip_norm = 5.0) {
  GruRegressor* nets[] = {&net};
  const FusedSlice slices[] = {{0, y.rows()}};
  std::vector<const Matrix*> steps;
  for (const Matrix& x : xs) steps.push_back(&x);
  Optimizer* opts[] = {&opt};
  double value = 0.0;
  engine.train_batch(nets, slices, steps, y, loss, opts, {&value, 1},
                     clip_norm);
  return value;
}

TEST(Gru, ConstructionValidation) {
  util::Rng rng(1);
  EXPECT_THROW(GruRegressor(0, 4, 1, rng), std::invalid_argument);
  EXPECT_THROW(GruRegressor(2, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(GruRegressor(2, 4, 0, rng), std::invalid_argument);
}

TEST(Gru, ParameterCount) {
  util::Rng rng(2);
  const std::size_t f = 3, h = 5, o = 2;
  GruRegressor net(f, h, o, rng);
  EXPECT_EQ(net.parameter_count(), f * 3 * h + h * 3 * h + 3 * h + h * o + o);
}

TEST(Gru, PredictShape) {
  util::Rng rng(3);
  GruRegressor net(2, 4, 1, rng);
  util::Rng data_rng(4);
  const auto xs = random_sequence(6, 3, 2, data_rng);
  const Matrix y = net.predict(xs);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 1u);
}

TEST(Gru, EmptySequenceThrows) {
  util::Rng rng(7);
  GruRegressor net(2, 4, 1, rng);
  EXPECT_THROW((void)net.predict({}), std::invalid_argument);
}

TEST(Gru, SetParametersRoundTrip) {
  util::Rng rng(8);
  GruRegressor net(2, 3, 1, rng);
  std::vector<double> values(net.parameter_count());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.001 * static_cast<double>(i);
  }
  net.set_parameters(values);
  const auto got = net.parameters();
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(got[i], values[i]);
  EXPECT_THROW(net.set_parameters(std::vector<double>(3)),
               std::invalid_argument);
}

// Finite-difference check of the GRU BPTT: the update of a plain-SGD,
// unclipped one-member FusedGru batch against the numeric gradient.
TEST(Gru, GradientCheckViaSgdStep) {
  util::Rng rng(9);
  GruRegressor net(2, 3, 1, rng);
  util::Rng data_rng(10);
  const auto xs = random_sequence(4, 2, 2, data_rng);
  Matrix y(2, 1);
  y(0, 0) = 0.4;
  y(1, 0) = -0.1;

  const auto loss_at = [&](std::span<const double> p) {
    GruRegressor copy = net;
    copy.set_parameters(p);
    const Matrix pred = copy.predict(xs);
    return loss_value(LossKind::kMse, pred, y);
  };

  const std::vector<double> before(net.parameters().begin(),
                                   net.parameters().end());
  const double lr = 1e-3;
  Sgd opt(lr);
  GruRegressor trained = net;
  FusedGru engine;
  train_alone(engine, trained, xs, y, LossKind::kMse, opt, /*clip_norm=*/0.0);
  const auto after = trained.parameters();

  const double eps = 1e-6;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < before.size(); i += 5) {
    auto plus = before;
    auto minus = before;
    plus[i] += eps;
    minus[i] -= eps;
    const double numeric = (loss_at(plus) - loss_at(minus)) / (2 * eps);
    const double implied = (before[i] - after[i]) / lr;
    ASSERT_NEAR(implied, numeric, 1e-4) << "param " << i;
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST(Gru, LearnsSequenceMean) {
  util::Rng rng(11);
  GruRegressor net(1, 8, 1, rng);
  Adam opt(0.01);
  FusedGru engine;
  util::Rng data_rng(12);
  double first_loss = -1.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    std::vector<Matrix> xs(5, Matrix(8, 1));
    Matrix y(8, 1);
    for (std::size_t b = 0; b < 8; ++b) {
      double sum = 0.0;
      for (std::size_t t = 0; t < 5; ++t) {
        const double v = data_rng.uniform(-1, 1);
        xs[t](b, 0) = v;
        sum += v;
      }
      y(b, 0) = sum / 5.0;
    }
    last_loss = train_alone(engine, net, xs, y, LossKind::kMse, opt);
    if (epoch == 0) first_loss = last_loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.2);
  EXPECT_LT(last_loss, 0.02);
}

// Rows of a batch go through 4-row register tiles or the per-row path
// depending on their position; either way each row's prediction equals
// the row predicted alone, bit for bit.
TEST(Gru, PredictRowsIndependentOfBatchBitwise) {
  util::Rng rng(21);
  GruRegressor net(3, 8, 2, rng);
  for (std::size_t batch = 1; batch <= 9; ++batch) {
    util::Rng data_rng(100 + batch);
    const auto xs = random_sequence(5, batch, 3, data_rng);
    const Matrix all = net.predict(xs);
    for (std::size_t r = 0; r < batch; ++r) {
      std::vector<Matrix> one(xs.size(), Matrix(1, 3));
      for (std::size_t t = 0; t < xs.size(); ++t) {
        std::copy(xs[t].row(r).begin(), xs[t].row(r).end(),
                  one[t].row(0).begin());
      }
      const Matrix alone = net.predict(one);
      for (std::size_t j = 0; j < 2; ++j) {
        ASSERT_EQ(all(r, j), alone(0, j))
            << "batch " << batch << " row " << r << " out " << j;
      }
    }
  }
}

TEST(Gru, SameSeedSameOutput) {
  util::Rng r1(13);
  util::Rng r2(13);
  GruRegressor a(2, 4, 1, r1);
  GruRegressor b(2, 4, 1, r2);
  util::Rng data_rng(14);
  const auto xs = random_sequence(4, 2, 2, data_rng);
  EXPECT_EQ(a.predict(xs), b.predict(xs));
}

}  // namespace
}  // namespace pfdrl::nn
