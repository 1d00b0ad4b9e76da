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

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  out = Matrix(a.rows(), b.cols());
  const std::size_t n = b.cols();
  const std::size_t k_dim = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i).data();
    double* out_row = out.row(i).data();
    for (std::size_t j = 0; j < n; ++j) {
      double c = 0.0;
      for (std::size_t k = 0; k < k_dim; ++k) {
        const double aik = a_row[k];
        if (aik == 0.0) continue;
        c += aik * b(k, j);
      }
      out_row[j] = c;
    }
  }
}

void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  out = Matrix(a.cols(), b.cols());
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* a_row = a.row(r).data();
    const double* b_row = b.row(r).data();
    for (std::size_t i = 0; i < m; ++i) {
      const double ari = a_row[i];
      if (ari == 0.0) continue;
      double* out_row = out.row(i).data();
      for (std::size_t j = 0; j < n; ++j) out_row[j] += ari * b_row[j];
    }
  }
}

void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  out = Matrix(a.rows(), b.rows());
  const std::size_t k_dim = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i).data();
    double* out_row = out.row(i).data();
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* b_row = b.row(j).data();
      double s = 0.0;
      for (std::size_t k = 0; k < k_dim; ++k) s += a_row[k] * b_row[k];
      out_row[j] = s;
    }
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
