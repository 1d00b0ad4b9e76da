#include "nn/dense.hpp"

#include <cassert>

#include "nn/fused.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pfdrl::nn {

void matvec1(std::span<const double> w, std::span<const double> b,
             std::span<const double> x, std::size_t in, std::size_t out,
             std::span<double> y) noexcept {
  assert(w.size() == in * out && b.size() == out);
  assert(x.size() == in && y.size() == out);
  const double* pw = w.data();
  const double* px = x.data();
  const double* pb = b.data();
  double* py = y.data();
  std::size_t j = 0;
#if defined(__AVX2__)
  // 16-column tile: four independent ymm accumulators, so the k loop runs
  // four add chains side by side instead of one. Explicit mul-then-add
  // (never fmadd): every lane is one output's scalar sequence b + x0*w0 +
  // x1*w1 + ... in ascending k, so the tile is bitwise the loop below.
  for (; j + 16 <= out; j += 16) {
    __m256d a0 = _mm256_loadu_pd(pb + j);
    __m256d a1 = _mm256_loadu_pd(pb + j + 4);
    __m256d a2 = _mm256_loadu_pd(pb + j + 8);
    __m256d a3 = _mm256_loadu_pd(pb + j + 12);
    const double* wk = pw + j;
    for (std::size_t k = 0; k < in; ++k, wk += out) {
      const __m256d s = _mm256_set1_pd(px[k]);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(s, _mm256_loadu_pd(wk)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(s, _mm256_loadu_pd(wk + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(s, _mm256_loadu_pd(wk + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(s, _mm256_loadu_pd(wk + 12)));
    }
    _mm256_storeu_pd(py + j, a0);
    _mm256_storeu_pd(py + j + 4, a1);
    _mm256_storeu_pd(py + j + 8, a2);
    _mm256_storeu_pd(py + j + 12, a3);
  }
  for (; j + 4 <= out; j += 4) {
    __m256d a = _mm256_loadu_pd(pb + j);
    const double* wk = pw + j;
    for (std::size_t k = 0; k < in; ++k, wk += out) {
      a = _mm256_add_pd(a,
                        _mm256_mul_pd(_mm256_set1_pd(px[k]), _mm256_loadu_pd(wk)));
    }
    _mm256_storeu_pd(py + j, a);
  }
#endif
  for (; j + 4 <= out; j += 4) {
    double a0 = pb[j], a1 = pb[j + 1], a2 = pb[j + 2], a3 = pb[j + 3];
    const double* wj = pw + j;
    for (std::size_t k = 0; k < in; ++k) {
      const double xk = px[k];
      const double* wk = wj + k * out;
      a0 += xk * wk[0];
      a1 += xk * wk[1];
      a2 += xk * wk[2];
      a3 += xk * wk[3];
    }
    py[j] = a0;
    py[j + 1] = a1;
    py[j + 2] = a2;
    py[j + 3] = a3;
  }
  for (; j < out; ++j) {
    double acc = pb[j];
    for (std::size_t k = 0; k < in; ++k) acc += px[k] * pw[k * out + j];
    py[j] = acc;
  }
}

void dense_forward(std::span<const double> params, std::size_t in,
                   std::size_t out, const Matrix& x, Activation act,
                   Matrix& y) {
  assert(params.size() == dense_param_count(in, out));
  assert(x.cols() == in);
  const std::size_t batch = x.rows();
  y.reshape(batch, out);
  dense_forward_slice(params, in, out, x, y, batch);
  // Activation over the whole matrix, not per row: libmvec's split between
  // vector lanes and scalar tail depends on the extent of the call.
  activate_inplace(act, y);
}

void dense_init(std::span<double> params, std::size_t in, std::size_t out,
                InitScheme scheme, util::Rng& rng) {
  assert(params.size() == dense_param_count(in, out));
  Matrix w(in, out);
  init_weights(w, scheme, rng);
  auto ws = w.data();
  for (std::size_t i = 0; i < ws.size(); ++i) params[i] = ws[i];
  for (std::size_t j = 0; j < out; ++j) params[in * out + j] = 0.0;
}

}  // namespace pfdrl::nn
