#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/dense.hpp"
#include "nn/fused.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/ref.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {
namespace {

TEST(Dense, ParamCount) {
  EXPECT_EQ(dense_param_count(3, 4), 16u);
  EXPECT_EQ(dense_param_count(1, 1), 2u);
}

TEST(Dense, ForwardKnownValues) {
  // 2 -> 1 layer: y = 1*x0 + 2*x1 + 0.5, identity activation.
  std::vector<double> params = {1.0, 2.0, 0.5};
  Matrix x{{3.0, 4.0}};
  Matrix y;
  dense_forward(params, 2, 1, x, Activation::kIdentity, y);
  ASSERT_EQ(y.rows(), 1u);
  EXPECT_DOUBLE_EQ(y(0, 0), 11.5);
}

TEST(Dense, ForwardReluClamps) {
  std::vector<double> params = {-1.0, 0.0};  // y = -x0
  Matrix x{{5.0}};
  Matrix y;
  dense_forward(params, 1, 1, x, Activation::kRelu, y);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
}

TEST(Mlp, ConstructionValidation) {
  util::Rng rng(1);
  EXPECT_THROW(Mlp({5}, Activation::kRelu, Activation::kIdentity,
                   InitScheme::kHeNormal, rng),
               std::invalid_argument);
  EXPECT_THROW(Mlp({5, 0, 2}, Activation::kRelu, Activation::kIdentity,
                   InitScheme::kHeNormal, rng),
               std::invalid_argument);
}

TEST(Mlp, LayerOffsetsPartitionParameters) {
  util::Rng rng(2);
  Mlp net({4, 8, 6, 2}, Activation::kRelu, Activation::kIdentity,
          InitScheme::kHeNormal, rng);
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.layer_offset(0), 0u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    EXPECT_EQ(net.layer_offset(i), total);
    total += net.layer_param_count(i);
  }
  EXPECT_EQ(total, net.parameter_count());
  EXPECT_EQ(net.layer_param_count(0), dense_param_count(4, 8));
  EXPECT_EQ(net.layer_param_count(2), dense_param_count(6, 2));
}

TEST(Mlp, SameSeedSameParameters) {
  util::Rng r1(7);
  util::Rng r2(7);
  Mlp a({3, 5, 1}, Activation::kRelu, Activation::kIdentity,
        InitScheme::kXavierUniform, r1);
  Mlp b({3, 5, 1}, Activation::kRelu, Activation::kIdentity,
        InitScheme::kXavierUniform, r2);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Mlp, SetParametersRoundTrip) {
  util::Rng rng(8);
  Mlp net({2, 3, 1}, Activation::kTanh, Activation::kIdentity,
          InitScheme::kXavierUniform, rng);
  std::vector<double> values(net.parameter_count());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) * 0.01;
  }
  net.set_parameters(values);
  const auto got = net.parameters();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(got[i], values[i]);
  }
  EXPECT_THROW(net.set_parameters(std::vector<double>(3)),
               std::invalid_argument);
}

// Finite-difference check of the MLP backward: the gradients a
// one-member mlp_forward/mlp_backward pass accumulates into its gradient
// span. Three layers, so the dL/dx each layer hands the one below is
// checked through the first two layers' parameter gradients.
TEST(Mlp, GradientCheckSmallNet) {
  util::Rng rng(10);
  Mlp net({2, 4, 3, 1}, Activation::kTanh, Activation::kIdentity,
          InitScheme::kXavierUniform, rng);
  Matrix x(3, 2);
  for (double& v : x.data()) v = rng.normal();
  const Matrix target(3, 1, 0.5);

  const auto loss_at = [&](std::span<const double> p) {
    Mlp copy = net;
    copy.set_parameters(p);
    const Matrix pred = copy.predict(x);
    return loss_value(LossKind::kMse, pred, target);
  };

  Workspace ws;
  const MlpTape tape = mlp_forward(net, x, x.rows(), ws);
  Matrix grad;
  ref::loss_grad(LossKind::kMse, *tape.out, target, grad);
  std::vector<double> grads(net.parameter_count(), 0.0);
  mlp_backward(net, tape, grad, grads, ws);

  const auto params = net.parameters();
  std::vector<double> base(params.begin(), params.end());
  const double eps = 1e-6;
  for (std::size_t i = 0; i < base.size(); i += 3) {  // subsample for speed
    auto plus = base;
    auto minus = base;
    plus[i] += eps;
    minus[i] -= eps;
    const double numeric = (loss_at(plus) - loss_at(minus)) / (2 * eps);
    ASSERT_NEAR(grads[i], numeric, 1e-5) << "param " << i;
  }
}

TEST(Mlp, TrainBatchLearnsToyRegression) {
  // y = 2*x0 - x1 is learnable by a small relu net.
  util::Rng rng(11);
  Mlp net({2, 16, 1}, Activation::kRelu, Activation::kIdentity,
          InitScheme::kHeNormal, rng);
  Adam opt(0.01);
  Matrix x(64, 2);
  Matrix y(64, 1);
  util::Rng data_rng(12);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = data_rng.uniform(-1, 1);
    x(i, 1) = data_rng.uniform(-1, 1);
    y(i, 0) = 2 * x(i, 0) - x(i, 1);
  }
  const auto step = [&] {
    return mlp_train_step(net, x, y, LossKind::kMse, opt);
  };
  const double first = step();
  double last = first;
  for (int e = 0; e < 300; ++e) last = step();
  EXPECT_LT(last, first * 0.05);
  EXPECT_LT(last, 0.01);
}

TEST(Mlp, SameArchitecture) {
  util::Rng rng(13);
  Mlp a({2, 4, 1}, Activation::kRelu, Activation::kIdentity,
        InitScheme::kHeNormal, rng);
  Mlp b({2, 4, 1}, Activation::kRelu, Activation::kIdentity,
        InitScheme::kHeNormal, rng);
  Mlp c({2, 5, 1}, Activation::kRelu, Activation::kIdentity,
        InitScheme::kHeNormal, rng);
  Mlp d({2, 4, 1}, Activation::kTanh, Activation::kIdentity,
        InitScheme::kHeNormal, rng);
  EXPECT_TRUE(a.same_architecture(b));
  EXPECT_FALSE(a.same_architecture(c));
  EXPECT_FALSE(a.same_architecture(d));
}

TEST(Mlp, LayerParametersAreViewsIntoFlatBuffer) {
  util::Rng rng(14);
  Mlp net({2, 3, 1}, Activation::kRelu, Activation::kIdentity,
          InitScheme::kHeNormal, rng);
  auto slice = net.layer_parameters(1);
  slice[0] = 1234.5;
  EXPECT_EQ(net.parameters()[net.layer_offset(1)], 1234.5);
}

// The batch-1 matvec kernel must agree bitwise with the batched row
// kernel: both accumulate every output in ascending-k order, and the
// goldens pin that order. Exercises out dims around the 4-wide unroll
// boundary (remainders 0..3) and states containing exact zeros (the
// batched kernel skips them; the branch-free kernel adds +0.0).
// Every row of dense_forward — inside a 4-row tile, a leftover row, or a
// batch of one through matvec1 — equals the per-row nn::ref::axpy sweep
// bit for bit, across tile and column-tail shapes.
TEST(Dense, Batch1MatchesBatchedBitwise) {
  util::Rng rng(31);
  for (const std::size_t out : {1u, 3u, 4u, 5u, 15u, 16u, 17u, 33u, 100u}) {
    const std::size_t in = 6;
    std::vector<double> params(dense_param_count(in, out));
    for (double& p : params) p = rng.normal();
    for (std::size_t rows = 1; rows <= 9; ++rows) {
      Matrix batch(rows, in);
      for (double& v : batch.data()) v = rng.normal();
      batch(rows / 2, 2) = 0.0;  // exercise the zero-skip equivalence
      for (const auto act : {Activation::kIdentity, Activation::kRelu}) {
        Matrix expect(rows, out);
        for (std::size_t r = 0; r < rows; ++r) {
          double* yr = expect.row(r).data();
          std::copy(params.begin() + in * out, params.end(), yr);
          for (std::size_t k = 0; k < in; ++k) {
            ref::axpy(batch(r, k), params.data() + k * out, yr, out);
          }
        }
        activate_inplace(act, expect);
        Matrix y_batched;
        dense_forward(params, in, out, batch, act, y_batched);
        for (std::size_t r = 0; r < rows; ++r) {
          Matrix x(1, in);
          std::copy(batch.row(r).begin(), batch.row(r).end(),
                    x.row(0).begin());
          Matrix y1;
          dense_forward(params, in, out, x, act, y1);
          for (std::size_t j = 0; j < out; ++j) {
            ASSERT_EQ(y_batched(r, j), expect(r, j))
                << "rows " << rows << " row " << r << " col " << j
                << " out=" << out;
            ASSERT_EQ(y1(0, j), expect(r, j))
                << "row " << r << " col " << j << " out=" << out;
          }
        }
      }
    }
  }
}

// predict() (inference) and mlp_forward (training) share the same dense
// kernels, so their outputs must be bitwise equal.
TEST(Mlp, PredictMatchesFusedForwardBitwise) {
  util::Rng rng(32);
  Mlp net({5, 9, 7, 3}, Activation::kRelu, Activation::kIdentity,
          InitScheme::kHeNormal, rng);
  Matrix x(4, 5);
  for (double& v : x.data()) v = rng.normal();
  Workspace ws;
  const Matrix& fwd = *mlp_forward(net, x, x.rows(), ws).out;
  const Matrix pred = net.predict(x);
  ASSERT_EQ(pred.rows(), fwd.rows());
  ASSERT_EQ(pred.cols(), fwd.cols());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    ASSERT_EQ(pred.data()[i], fwd.data()[i]);
  }
}

}  // namespace
}  // namespace pfdrl::nn
