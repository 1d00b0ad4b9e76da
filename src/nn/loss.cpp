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

void loss_grad(LossKind kind, const Matrix& pred, const Matrix& target,
               Matrix& grad, double huber_delta) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  grad.reshape(pred.rows(), pred.cols());
  const auto ps = pred.data();
  const auto ts = target.data();
  auto gs = grad.data();
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
