#include "nn/kernels.hpp"

#include <atomic>
#include <cmath>

#include "nn/fused.hpp"

#if defined(__AVX2__) && defined(PFDRL_HAVE_LIBMVEC)
#include <immintrin.h>
// glibc's x86-64 vector-math entry points (4-wide double, AVX2 width).
// The 'dN4v' signature takes one ymm argument and returns one ymm, which
// is exactly the SysV calling convention for (__m256d) -> __m256d, so a
// plain extern declaration binds them. Declared here rather than via
// math.h's simd pragmas because those only activate under -ffast-math,
// which this project must not enable (it licenses reassociation and
// would void the kernel determinism contract).
extern "C" {
__m256d _ZGVdN4v_exp(__m256d);   // NOLINT(readability-identifier-naming)
__m256d _ZGVdN4v_tanh(__m256d);  // NOLINT(readability-identifier-naming)
}
#define PFDRL_VECTOR_MATH 1
#endif

namespace pfdrl::nn::kernels {

namespace {

std::atomic<std::uint64_t> g_train_batches{0};

// Kept out-of-line and noinline so the compiler must emit the expression
// as written instead of constant-folding it: with -ffp-contract=off this
// is round(a*b) + c; with contraction it becomes fma(a, b, c).
[[gnu::noinline]] double mul_add_probe(double a, double b, double c) noexcept {
  return a * b + c;
}

}  // namespace

void sigmoid_inplace(double* x, std::size_t n) noexcept {
  std::size_t j = 0;
#ifdef PFDRL_VECTOR_MATH
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  for (; j + kLanes <= n; j += kLanes) {
    const __m256d v = _mm256_loadu_pd(x + j);
    const __m256d e = _ZGVdN4v_exp(_mm256_sub_pd(zero, v));
    _mm256_storeu_pd(x + j, _mm256_div_pd(one, _mm256_add_pd(one, e)));
  }
#endif
  for (; j < n; ++j) x[j] = 1.0 / (1.0 + std::exp(-x[j]));
}

void tanh_inplace(double* x, std::size_t n) noexcept {
  std::size_t j = 0;
#ifdef PFDRL_VECTOR_MATH
  for (; j + kLanes <= n; j += kLanes) {
    _mm256_storeu_pd(x + j, _ZGVdN4v_tanh(_mm256_loadu_pd(x + j)));
  }
#endif
  for (; j < n; ++j) x[j] = std::tanh(x[j]);
}

namespace {

// Per-element scalar form of slab_outer_acc for the columns [j0, n) of
// rows of g [k0, m): one accumulator per element, rows ascending. The
// generic build runs everything through it; the AVX2 build only the
// k remainder of the narrow tile.
void outer_acc_scalar(const double* x, std::size_t x_stride, std::size_t k0,
                      std::size_t m, const double* d, std::size_t d_stride,
                      std::size_t j0, std::size_t n, std::size_t rows,
                      double* g, std::size_t g_stride) noexcept {
  for (std::size_t k = k0; k < m; ++k) {
    for (std::size_t j = j0; j < n; ++j) {
      double acc = g[k * g_stride + j];
      for (std::size_t r = 0; r < rows; ++r) {
        acc += x[r * x_stride + k] * d[r * d_stride + j];
      }
      g[k * g_stride + j] = acc;
    }
  }
}

void bias_acc_scalar(const double* d, std::size_t d_stride, std::size_t j0,
                     std::size_t n, std::size_t rows, double* b) noexcept {
  for (std::size_t j = j0; j < n; ++j) {
    double acc = b[j];
    for (std::size_t r = 0; r < rows; ++r) acc += d[r * d_stride + j];
    b[j] = acc;
  }
}

#if defined(__AVX2__)
// 4 (k) x NJ (j) tile for the columns past the last full 8-block: the
// lanes run along k (x's row is contiguous in k), so narrow outputs —
// the 1- and 3-wide heads — still fill a vector. Lanes are independent
// elements; mul-then-add per element, rows ascending.
template <std::size_t NJ>
void outer_acc_narrow(const double* x, std::size_t x_stride, std::size_t m,
                      const double* d, std::size_t d_stride, std::size_t rows,
                      double* g, std::size_t g_stride) noexcept {
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    double* g0 = g + k * g_stride;
    __m256d acc[NJ];
    for (std::size_t j = 0; j < NJ; ++j) {
      acc[j] = _mm256_set_pd(g0[3 * g_stride + j], g0[2 * g_stride + j],
                             g0[g_stride + j], g0[j]);
    }
    const double* xr = x + k;
    const double* dr = d;
    for (std::size_t r = 0; r < rows; ++r, xr += x_stride, dr += d_stride) {
      const __m256d xv = _mm256_loadu_pd(xr);
      for (std::size_t j = 0; j < NJ; ++j) {
        acc[j] = _mm256_add_pd(acc[j],
                               _mm256_mul_pd(xv, _mm256_set1_pd(dr[j])));
      }
    }
    for (std::size_t j = 0; j < NJ; ++j) {
      alignas(32) double lane[4];
      _mm256_store_pd(lane, acc[j]);
      for (std::size_t q = 0; q < 4; ++q) g0[q * g_stride + j] = lane[q];
    }
  }
  outer_acc_scalar(x, x_stride, k, m, d, d_stride, 0, NJ, rows, g, g_stride);
}

using NarrowTile = void (*)(const double*, std::size_t, std::size_t,
                            const double*, std::size_t, std::size_t, double*,
                            std::size_t) noexcept;
constexpr NarrowTile kNarrowTiles[8] = {
    nullptr,
    &outer_acc_narrow<1>,
    &outer_acc_narrow<2>,
    &outer_acc_narrow<3>,
    &outer_acc_narrow<4>,
    &outer_acc_narrow<5>,
    &outer_acc_narrow<6>,
    &outer_acc_narrow<7>};

// ((l0 + l1) + (l2 + l3)) of four dot() accumulators a0..a3 (one per k),
// returned as one vector indexed by k: a 4x4 transpose puts lane m of
// every accumulator into vector m, then the combine runs lane-parallel.
inline __m256d combine_lanes(__m256d a0, __m256d a1, __m256d a2,
                             __m256d a3) noexcept {
  const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
  const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
  const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
  const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
  const __m256d l0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  const __m256d l1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  const __m256d l2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  const __m256d l3 = _mm256_permute2f128_pd(t1, t3, 0x31);
  return _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3));
}
#endif

}  // namespace

void slab_outer_acc(const double* x, std::size_t x_stride, std::size_t m,
                    const double* d, std::size_t d_stride, std::size_t n,
                    std::size_t rows, double* g, std::size_t g_stride,
                    double* b) noexcept {
#if defined(__AVX2__)
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const double* dj = d + j;
    if (b != nullptr) {
      __m256d b0 = _mm256_loadu_pd(b + j);
      __m256d b1 = _mm256_loadu_pd(b + j + 4);
      const double* dr = dj;
      for (std::size_t r = 0; r < rows; ++r, dr += d_stride) {
        b0 = _mm256_add_pd(b0, _mm256_loadu_pd(dr));
        b1 = _mm256_add_pd(b1, _mm256_loadu_pd(dr + 4));
      }
      _mm256_storeu_pd(b + j, b0);
      _mm256_storeu_pd(b + j + 4, b1);
    }
    std::size_t k = 0;
    for (; k + 4 <= m; k += 4) {
      double* g0 = g + k * g_stride + j;
      double* g1 = g0 + g_stride;
      double* g2 = g1 + g_stride;
      double* g3 = g2 + g_stride;
      __m256d a00 = _mm256_loadu_pd(g0), a01 = _mm256_loadu_pd(g0 + 4);
      __m256d a10 = _mm256_loadu_pd(g1), a11 = _mm256_loadu_pd(g1 + 4);
      __m256d a20 = _mm256_loadu_pd(g2), a21 = _mm256_loadu_pd(g2 + 4);
      __m256d a30 = _mm256_loadu_pd(g3), a31 = _mm256_loadu_pd(g3 + 4);
      const double* xr = x + k;
      const double* dr = dj;
      for (std::size_t r = 0; r < rows; ++r, xr += x_stride, dr += d_stride) {
        const __m256d d0 = _mm256_loadu_pd(dr);
        const __m256d d1 = _mm256_loadu_pd(dr + 4);
        __m256d s = _mm256_set1_pd(xr[0]);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(s, d0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(s, d1));
        s = _mm256_set1_pd(xr[1]);
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(s, d0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(s, d1));
        s = _mm256_set1_pd(xr[2]);
        a20 = _mm256_add_pd(a20, _mm256_mul_pd(s, d0));
        a21 = _mm256_add_pd(a21, _mm256_mul_pd(s, d1));
        s = _mm256_set1_pd(xr[3]);
        a30 = _mm256_add_pd(a30, _mm256_mul_pd(s, d0));
        a31 = _mm256_add_pd(a31, _mm256_mul_pd(s, d1));
      }
      _mm256_storeu_pd(g0, a00);
      _mm256_storeu_pd(g0 + 4, a01);
      _mm256_storeu_pd(g1, a10);
      _mm256_storeu_pd(g1 + 4, a11);
      _mm256_storeu_pd(g2, a20);
      _mm256_storeu_pd(g2 + 4, a21);
      _mm256_storeu_pd(g3, a30);
      _mm256_storeu_pd(g3 + 4, a31);
    }
    for (; k < m; ++k) {
      double* gk = g + k * g_stride + j;
      __m256d a0 = _mm256_loadu_pd(gk), a1 = _mm256_loadu_pd(gk + 4);
      const double* xr = x + k;
      const double* dr = dj;
      for (std::size_t r = 0; r < rows; ++r, xr += x_stride, dr += d_stride) {
        const __m256d s = _mm256_set1_pd(*xr);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(s, _mm256_loadu_pd(dr)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(s, _mm256_loadu_pd(dr + 4)));
      }
      _mm256_storeu_pd(gk, a0);
      _mm256_storeu_pd(gk + 4, a1);
    }
  }
  if (j < n) {
    if (b != nullptr) bias_acc_scalar(d, d_stride, j, n, rows, b);
    kNarrowTiles[n - j](x, x_stride, m, d + j, d_stride, rows, g + j,
                        g_stride);
  }
#else
  if (b != nullptr) bias_acc_scalar(d, d_stride, 0, n, rows, b);
  outer_acc_scalar(x, x_stride, 0, m, d, d_stride, 0, n, rows, g, g_stride);
#endif
}

void slab_dot(const double* d, std::size_t d_stride, std::size_t n,
              std::size_t rows, const double* w, std::size_t w_stride,
              std::size_t m, double* out, std::size_t out_stride) noexcept {
  std::size_t k = 0;
#if defined(__AVX2__)
  const std::size_t nb = n - n % kLanes;  // lane-block extent, as in dot()
  for (; k + 4 <= m; k += 4) {
    const double* w0 = w + k * w_stride;
    const double* w1 = w0 + w_stride;
    const double* w2 = w1 + w_stride;
    const double* w3 = w2 + w_stride;
    // dot()'s sequential tail terms, one vector of four k per term.
    __m256d wt[kLanes - 1];
    for (std::size_t t = nb; t < n; ++t) {
      wt[t - nb] = _mm256_set_pd(w3[t], w2[t], w1[t], w0[t]);
    }
    const auto tail = [&](const double* dr) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t t = nb; t < n; ++t) {
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(_mm256_set1_pd(dr[t]), wt[t - nb]));
      }
      return acc;
    };
    std::size_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      const double* d0 = d + r * d_stride;
      const double* d1 = d0 + d_stride;
      __m256d a00 = _mm256_setzero_pd(), a01 = a00, a02 = a00, a03 = a00;
      __m256d a10 = a00, a11 = a00, a12 = a00, a13 = a00;
      for (std::size_t i = 0; i < nb; i += kLanes) {
        const __m256d x0 = _mm256_loadu_pd(d0 + i);
        const __m256d x1 = _mm256_loadu_pd(d1 + i);
        const __m256d v0 = _mm256_loadu_pd(w0 + i);
        const __m256d v1 = _mm256_loadu_pd(w1 + i);
        const __m256d v2 = _mm256_loadu_pd(w2 + i);
        const __m256d v3 = _mm256_loadu_pd(w3 + i);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(x0, v0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(x0, v1));
        a02 = _mm256_add_pd(a02, _mm256_mul_pd(x0, v2));
        a03 = _mm256_add_pd(a03, _mm256_mul_pd(x0, v3));
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(x1, v0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(x1, v1));
        a12 = _mm256_add_pd(a12, _mm256_mul_pd(x1, v2));
        a13 = _mm256_add_pd(a13, _mm256_mul_pd(x1, v3));
      }
      _mm256_storeu_pd(out + r * out_stride + k,
                       _mm256_add_pd(combine_lanes(a00, a01, a02, a03),
                                     tail(d0)));
      _mm256_storeu_pd(out + (r + 1) * out_stride + k,
                       _mm256_add_pd(combine_lanes(a10, a11, a12, a13),
                                     tail(d1)));
    }
    if (r < rows) {
      const double* d0 = d + r * d_stride;
      __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
      for (std::size_t i = 0; i < nb; i += kLanes) {
        const __m256d x0 = _mm256_loadu_pd(d0 + i);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(x0, _mm256_loadu_pd(w0 + i)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(x0, _mm256_loadu_pd(w1 + i)));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(x0, _mm256_loadu_pd(w2 + i)));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(x0, _mm256_loadu_pd(w3 + i)));
      }
      _mm256_storeu_pd(out + r * out_stride + k,
                       _mm256_add_pd(combine_lanes(a0, a1, a2, a3), tail(d0)));
    }
  }
#endif
  for (; k < m; ++k) {
    for (std::size_t r = 0; r < rows; ++r) {
      out[r * out_stride + k] = dot(d + r * d_stride, w + k * w_stride, n);
    }
  }
}

bool vector_math_active() noexcept {
#ifdef PFDRL_VECTOR_MATH
  return true;
#else
  return false;
#endif
}

bool fp_contraction_active() noexcept {
  // a² = 1 + 2⁻²⁶ + 2⁻⁵⁴ needs 54 fraction bits, so the product is
  // inexact in double. Without contraction the probe computes
  // round(a²) - round(a²) = 0 exactly; a fused multiply-add keeps the
  // low bits and returns the (nonzero) rounding error instead.
  volatile double v = 1.0 + 0x1p-27;
  const double a = v;
  const double rounded = a * a;
  return mul_add_probe(a, a, -rounded) != 0.0;
}

std::uint64_t total_train_batches() noexcept {
  return g_train_batches.load(std::memory_order_relaxed);
}

void note_train_batch() noexcept {
  g_train_batches.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pfdrl::nn::kernels

// Fused-batch telemetry (declared in nn/fused.hpp). Defined here, next
// to the train-batch counter, so translation units that link metrics
// recording without the fused engines (the sanitizer stress jobs build
// kernels.cpp + metrics.cpp directly) still resolve these symbols.
namespace pfdrl::nn {

namespace {
std::atomic<std::uint64_t> g_fused_batches{0};
std::atomic<std::uint64_t> g_fused_rows{0};
std::atomic<std::uint64_t> g_fused_members_hw{0};
}  // namespace

void note_fused_batch(std::size_t members, std::size_t rows) noexcept {
  g_fused_batches.fetch_add(1, std::memory_order_relaxed);
  g_fused_rows.fetch_add(rows, std::memory_order_relaxed);
  std::uint64_t hw = g_fused_members_hw.load(std::memory_order_relaxed);
  while (members > hw && !g_fused_members_hw.compare_exchange_weak(
                             hw, members, std::memory_order_relaxed)) {
  }
}

std::uint64_t total_fused_batches() noexcept {
  return g_fused_batches.load(std::memory_order_relaxed);
}
std::uint64_t total_fused_rows() noexcept {
  return g_fused_rows.load(std::memory_order_relaxed);
}
std::uint64_t max_fused_members() noexcept {
  return g_fused_members_hw.load(std::memory_order_relaxed);
}

}  // namespace pfdrl::nn
