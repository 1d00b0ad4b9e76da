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
