// Regression losses with analytic gradients. The DQN uses Huber loss as
// in the paper ("acts quadratic for small errors and linear for large
// errors"); forecasters use MSE by default and expose the others for the
// ablation benches.
#pragma once

#include "nn/matrix.hpp"

namespace pfdrl::nn {

enum class LossKind { kMse, kMae, kHuber };

/// Mean loss over all elements of (pred, target); shapes must match.
double loss_value(LossKind kind, const Matrix& pred, const Matrix& target,
                  double huber_delta = 1.0);

/// d(mean loss)/d(pred) over all of pred into `grad`, reshaped in place
/// to pred's shape (reusing its capacity).
void loss_grad(LossKind kind, const Matrix& pred, const Matrix& target,
               Matrix& grad, double huber_delta = 1.0);

/// Scalar Huber loss (exposed for tests and the RL temporal-difference
/// error path, which operates on single Q-values).
double huber(double error, double delta = 1.0) noexcept;
double huber_grad(double error, double delta = 1.0) noexcept;

const char* loss_name(LossKind kind) noexcept;

}  // namespace pfdrl::nn
