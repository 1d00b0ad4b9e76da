#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.hpp"
#include "nn/loss.hpp"
#include "nn/ref.hpp"

namespace pfdrl::nn {
namespace {

TEST(Activation, ReluValues) {
  EXPECT_EQ(activate(Activation::kRelu, -1.0), 0.0);
  EXPECT_EQ(activate(Activation::kRelu, 2.5), 2.5);
  EXPECT_EQ(activate(Activation::kRelu, 0.0), 0.0);
}

TEST(Activation, SigmoidValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::kSigmoid, 0.0), 0.5);
  EXPECT_NEAR(activate(Activation::kSigmoid, 100.0), 1.0, 1e-12);
  EXPECT_NEAR(activate(Activation::kSigmoid, -100.0), 0.0, 1e-12);
}

TEST(Activation, TanhValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::kTanh, 0.0), 0.0);
  EXPECT_NEAR(activate(Activation::kTanh, 3.0), std::tanh(3.0), 1e-15);
}

TEST(Activation, IdentityPassThrough) {
  EXPECT_EQ(activate(Activation::kIdentity, -7.25), -7.25);
  EXPECT_EQ(activate_grad_from_output(Activation::kIdentity, 123.0), 1.0);
}

class ActivationGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradCheck, MatchesFiniteDifference) {
  const Activation act = GetParam();
  const double eps = 1e-6;
  for (double x : {-2.0, -0.5, 0.3, 1.7}) {
    const double y = activate(act, x);
    const double numeric =
        (activate(act, x + eps) - activate(act, x - eps)) / (2 * eps);
    const double analytic = activate_grad_from_output(act, y);
    EXPECT_NEAR(analytic, numeric, 1e-5) << activation_name(act) << " at " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(All, ActivationGradCheck,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

TEST(Activation, ReluGradFromOutput) {
  // Relu's derivative from output: positive output -> 1, zero output -> 0.
  EXPECT_EQ(activate_grad_from_output(Activation::kRelu, 3.0), 1.0);
  EXPECT_EQ(activate_grad_from_output(Activation::kRelu, 0.0), 0.0);
}

TEST(Activation, InplaceMatchesScalar) {
  Matrix m{{-1.0, 0.5, 2.0}};
  Matrix copy = m;
  activate_inplace(Activation::kSigmoid, m);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.data()[i],
                     activate(Activation::kSigmoid, copy.data()[i]));
  }
}

TEST(Huber, QuadraticInsideDelta) {
  EXPECT_DOUBLE_EQ(huber(0.5, 1.0), 0.125);
  EXPECT_DOUBLE_EQ(huber(-0.5, 1.0), 0.125);
}

TEST(Huber, LinearOutsideDelta) {
  EXPECT_DOUBLE_EQ(huber(3.0, 1.0), 2.5);
  EXPECT_DOUBLE_EQ(huber(-3.0, 1.0), 2.5);
}

TEST(Huber, ContinuousAtDelta) {
  const double delta = 1.0;
  EXPECT_NEAR(huber(delta - 1e-9, delta), huber(delta + 1e-9, delta), 1e-8);
}

TEST(Huber, GradClampsAtDelta) {
  EXPECT_DOUBLE_EQ(huber_grad(0.4, 1.0), 0.4);
  EXPECT_DOUBLE_EQ(huber_grad(5.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(huber_grad(-5.0, 1.0), -1.0);
}

TEST(Loss, MseKnownValue) {
  const Matrix pred{{1.0, 2.0}};
  const Matrix target{{0.0, 4.0}};
  EXPECT_DOUBLE_EQ(loss_value(LossKind::kMse, pred, target), 2.5);
}

TEST(Loss, MaeKnownValue) {
  const Matrix pred{{1.0, 2.0}};
  const Matrix target{{0.0, 4.0}};
  EXPECT_DOUBLE_EQ(loss_value(LossKind::kMae, pred, target), 1.5);
}

TEST(Loss, HuberKnownValue) {
  const Matrix pred{{0.5, 3.0}};
  const Matrix target{{0.0, 0.0}};
  EXPECT_DOUBLE_EQ(loss_value(LossKind::kHuber, pred, target),
                   (0.125 + 2.5) / 2.0);
}

TEST(Loss, ZeroWhenEqual) {
  const Matrix m{{1.0, -2.0, 3.0}};
  for (auto kind : {LossKind::kMse, LossKind::kMae, LossKind::kHuber}) {
    EXPECT_EQ(loss_value(kind, m, m), 0.0);
  }
}

class LossGradCheck : public ::testing::TestWithParam<LossKind> {};

TEST_P(LossGradCheck, MatchesFiniteDifference) {
  const LossKind kind = GetParam();
  Matrix pred{{0.3, -1.7, 2.2}};
  const Matrix target{{0.0, 0.5, 2.0}};
  Matrix grad;
  ref::loss_grad(kind, pred, target, grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    Matrix plus = pred;
    Matrix minus = pred;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double numeric = (loss_value(kind, plus, target) -
                            loss_value(kind, minus, target)) /
                           (2 * eps);
    EXPECT_NEAR(grad.data()[i], numeric, 1e-5) << loss_name(kind);
  }
}

// The production row-range gradient over all rows is bitwise the
// whole-matrix oracle; over a slice it is the oracle of that slice alone
// and leaves the other rows untouched.
TEST_P(LossGradCheck, RowRangeMatchesWholeMatrixOracleBitwise) {
  const LossKind kind = GetParam();
  const Matrix pred{{0.3, -1.7}, {2.2, 0.0}, {-0.4, 1.1}};
  const Matrix target{{0.0, 0.5}, {2.0, 0.0}, {0.1, 3.0}};
  Matrix want;
  ref::loss_grad(kind, pred, target, want);
  Matrix got(pred.rows(), pred.cols());
  loss_grad_rows(kind, pred, target, 0, pred.rows(), got);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << loss_name(kind) << " " << i;
  }

  const Matrix pred_tail{{2.2, 0.0}, {-0.4, 1.1}};
  const Matrix target_tail{{2.0, 0.0}, {0.1, 3.0}};
  ref::loss_grad(kind, pred_tail, target_tail, want);
  Matrix slice(pred.rows(), pred.cols(), 7.0);
  loss_grad_rows(kind, pred, target, 1, 2, slice);
  EXPECT_EQ(slice(0, 0), 7.0);
  EXPECT_EQ(slice(0, 1), 7.0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(slice.data()[2 + i], want.data()[i]) << loss_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(All, LossGradCheck,
                         ::testing::Values(LossKind::kMse, LossKind::kMae,
                                           LossKind::kHuber));

TEST(Loss, NamesStable) {
  EXPECT_STREQ(loss_name(LossKind::kMse), "mse");
  EXPECT_STREQ(loss_name(LossKind::kMae), "mae");
  EXPECT_STREQ(loss_name(LossKind::kHuber), "huber");
}

}  // namespace
}  // namespace pfdrl::nn
