#include "nn/optimizer.hpp"

#include <cassert>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pfdrl::nn {

void Sgd::step(std::span<double> params, std::span<const double> grads) {
  assert(params.size() == grads.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] -= lr_ * grads[i];
  }
}

void Adam::step(std::span<double> params, std::span<const double> grads) {
  assert(params.size() == grads.size());
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0);
    v_.assign(params.size(), 0.0);
    t_ = 0;
  }
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const std::size_t n = params.size();
  double* __restrict p = params.data();
  const double* __restrict g = grads.data();
  double* __restrict m = m_.data();
  double* __restrict v = v_.data();
  std::size_t i = 0;
#if defined(__AVX2__)
  // Four parameters per step, each lane the scalar expression below in
  // the same order. mul/add/sub/div/sqrt are all correctly rounded IEEE
  // operations (and never fused: no fmadd), so every lane is bitwise the
  // scalar result — nn::ref::adam_step is the test oracle.
  const __m256d b1 = _mm256_set1_pd(beta1_);
  const __m256d c1 = _mm256_set1_pd(1.0 - beta1_);
  const __m256d b2 = _mm256_set1_pd(beta2_);
  const __m256d c2 = _mm256_set1_pd(1.0 - beta2_);
  const __m256d lr = _mm256_set1_pd(lr_);
  const __m256d bc1 = _mm256_set1_pd(bias1);
  const __m256d bc2 = _mm256_set1_pd(bias2);
  const __m256d eps = _mm256_set1_pd(eps_);
  for (; i + 4 <= n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d mv = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(c1, gv));
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(c2, gv), gv));
    _mm256_storeu_pd(m + i, mv);
    _mm256_storeu_pd(v + i, vv);
    const __m256d mhat = _mm256_div_pd(mv, bc1);
    const __m256d vhat = _mm256_div_pd(vv, bc2);
    const __m256d upd =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(p + i, _mm256_sub_pd(_mm256_loadu_pd(p + i), upd));
  }
#endif
  for (; i < n; ++i) {
    m[i] = beta1_ * m[i] + (1.0 - beta1_) * g[i];
    v[i] = beta2_ * v[i] + (1.0 - beta2_) * g[i] * g[i];
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    p[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

}  // namespace pfdrl::nn
