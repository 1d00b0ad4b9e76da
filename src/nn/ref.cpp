#include "nn/ref.hpp"

#include <cassert>
#include <cmath>

namespace pfdrl::nn::ref {

double dot(const double* x, const double* y, std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t k = 0; k < n; ++k) s += x[k] * y[k];
  return s;
}

void axpy(double a, const double* x, double* y, std::size_t n) noexcept {
  if (a == 0.0) return;
  for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

void outer_acc(const double* x, std::size_t m, const double* d,
               std::size_t n, double* g) noexcept {
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < n; ++j) g[k * n + j] += x[k] * d[j];
  }
}

void loss_grad(LossKind kind, const Matrix& pred, const Matrix& target,
               Matrix& grad, double huber_delta) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  if (grad.rows() != pred.rows() || grad.cols() != pred.cols()) {
    grad = Matrix(pred.rows(), pred.cols());
  }
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

void adam_step(std::span<double> params, std::span<const double> grads,
               std::span<double> m, std::span<double> v, double lr,
               double beta1, double beta2, double eps, std::int64_t t) {
  assert(grads.size() == params.size() && m.size() == params.size() &&
         v.size() == params.size());
  const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = grads[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + ((1.0 - beta2) * g) * g;
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    params[i] = params[i] - (lr * mhat) / (std::sqrt(vhat) + eps);
  }
}

}  // namespace pfdrl::nn::ref
