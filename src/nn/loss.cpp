#include "nn/loss.hpp"

#include <cassert>
#include <cmath>

namespace pfdrl::nn {

double huber(double error, double delta) noexcept {
  const double abs_err = std::abs(error);
  if (abs_err <= delta) return 0.5 * error * error;
  return delta * (abs_err - 0.5 * delta);
}

double huber_grad(double error, double delta) noexcept {
  if (std::abs(error) <= delta) return error;
  return error > 0.0 ? delta : -delta;
}

double loss_value(LossKind kind, const Matrix& pred, const Matrix& target,
                  double huber_delta) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  const auto ps = pred.data();
  const auto ts = target.data();
  const auto n = static_cast<double>(ps.size());
  if (ps.empty()) return 0.0;
  double total = 0.0;
  switch (kind) {
    case LossKind::kMse:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        const double e = ps[i] - ts[i];
        total += e * e;
      }
      return total / n;
    case LossKind::kMae:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        total += std::abs(ps[i] - ts[i]);
      }
      return total / n;
    case LossKind::kHuber:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        total += huber(ps[i] - ts[i], huber_delta);
      }
      return total / n;
  }
  return 0.0;
}

double loss_value_rows(LossKind kind, const Matrix& pred,
                       const Matrix& target, std::size_t row_begin,
                       std::size_t rows, double huber_delta) {
  assert(pred.rows() == target.rows());
  return loss_value_rows(kind, pred, row_begin, target, row_begin, rows,
                         huber_delta);
}

double loss_value_rows(LossKind kind, const Matrix& pred,
                       std::size_t pred_row_begin, const Matrix& target,
                       std::size_t target_row_begin, std::size_t rows,
                       double huber_delta) {
  assert(pred.cols() == target.cols());
  assert(pred_row_begin + rows <= pred.rows());
  assert(target_row_begin + rows <= target.rows());
  const std::size_t count = rows * pred.cols();
  const auto ps = pred.data().subspan(pred_row_begin * pred.cols(), count);
  const auto ts =
      target.data().subspan(target_row_begin * target.cols(), count);
  if (ps.empty()) return 0.0;
  const auto n = static_cast<double>(ps.size());
  double total = 0.0;
  switch (kind) {
    case LossKind::kMse:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        const double e = ps[i] - ts[i];
        total += e * e;
      }
      return total / n;
    case LossKind::kMae:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        total += std::abs(ps[i] - ts[i]);
      }
      return total / n;
    case LossKind::kHuber:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        total += huber(ps[i] - ts[i], huber_delta);
      }
      return total / n;
  }
  return 0.0;
}

void loss_grad_rows(LossKind kind, const Matrix& pred, const Matrix& target,
                    std::size_t row_begin, std::size_t rows, Matrix& grad,
                    double huber_delta) {
  assert(pred.rows() == target.rows());
  loss_grad_rows(kind, pred, row_begin, target, row_begin, rows, grad,
                 huber_delta);
}

void loss_grad_rows(LossKind kind, const Matrix& pred,
                    std::size_t pred_row_begin, const Matrix& target,
                    std::size_t target_row_begin, std::size_t rows,
                    Matrix& grad, double huber_delta) {
  assert(pred.cols() == target.cols());
  assert(grad.rows() == pred.rows() && grad.cols() == pred.cols());
  assert(pred_row_begin + rows <= pred.rows());
  assert(target_row_begin + rows <= target.rows());
  const std::size_t count = rows * pred.cols();
  const auto ps = pred.data().subspan(pred_row_begin * pred.cols(), count);
  const auto ts =
      target.data().subspan(target_row_begin * target.cols(), count);
  auto gs = grad.data().subspan(pred_row_begin * pred.cols(), count);
  const double inv_n = ps.empty() ? 0.0 : 1.0 / static_cast<double>(ps.size());
  switch (kind) {
    case LossKind::kMse:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        gs[i] = 2.0 * (ps[i] - ts[i]) * inv_n;
      }
      break;
    case LossKind::kMae:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        const double e = ps[i] - ts[i];
        gs[i] = (e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0)) * inv_n;
      }
      break;
    case LossKind::kHuber:
      for (std::size_t i = 0; i < ps.size(); ++i) {
        gs[i] = huber_grad(ps[i] - ts[i], huber_delta) * inv_n;
      }
      break;
  }
}

const char* loss_name(LossKind kind) noexcept {
  switch (kind) {
    case LossKind::kMse: return "mse";
    case LossKind::kMae: return "mae";
    case LossKind::kHuber: return "huber";
  }
  return "?";
}

}  // namespace pfdrl::nn
