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

/// Mean loss over the row range [row_begin, row_begin + rows) only — the
/// fused cross-home path normalizes each home's slab slice by its own
/// element count, so the value is bitwise identical to loss_value over
/// that home's standalone batch (rows are contiguous and iterated in the
/// same ascending element order).
double loss_value_rows(LossKind kind, const Matrix& pred,
                       const Matrix& target, std::size_t row_begin,
                       std::size_t rows, double huber_delta = 1.0);

/// Over the row range [row_begin, row_begin + rows): writes d(mean slice
/// loss)/d(pred) into the same rows of `grad` (which must already have
/// pred's shape) and leaves the other rows untouched. Over all rows it is
/// bitwise the whole-matrix oracle nn::ref::loss_grad.
void loss_grad_rows(LossKind kind, const Matrix& pred, const Matrix& target,
                    std::size_t row_begin, std::size_t rows, Matrix& grad,
                    double huber_delta = 1.0);

/// Split-begin variants: pred rows start at `pred_row_begin`, target rows
/// at `target_row_begin` (the fused trainers' epoch arenas hold targets
/// at an arena offset while predictions live in batch-local slabs). Both
/// iterate the identical ascending element order as the same-begin
/// forms, so values and gradients stay bitwise unchanged.
double loss_value_rows(LossKind kind, const Matrix& pred,
                       std::size_t pred_row_begin, const Matrix& target,
                       std::size_t target_row_begin, std::size_t rows,
                       double huber_delta = 1.0);
void loss_grad_rows(LossKind kind, const Matrix& pred,
                    std::size_t pred_row_begin, const Matrix& target,
                    std::size_t target_row_begin, std::size_t rows,
                    Matrix& grad, double huber_delta = 1.0);

/// Scalar Huber loss (exposed for tests and the RL temporal-difference
/// error path, which operates on single Q-values).
double huber(double error, double delta = 1.0) noexcept;
double huber_grad(double error, double delta = 1.0) noexcept;

const char* loss_name(LossKind kind) noexcept;

}  // namespace pfdrl::nn
