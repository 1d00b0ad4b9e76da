// Strip-mined, branch-free inner-loop kernels for the training hot path.
//
// Every dense/recurrent loop in the library reduces to three primitives:
//
//   dot(x, y, n)        — reduction over n products;
//   axpy(a, x, y, n)    — y[j] += a * x[j] (no reduction);
//   outer products      — g[k][j] += x[k] * d[j] (rows of axpy, summed
//                         over a batch's rows by slab_outer_acc).
//
// The old kernels guarded each k-term with `if (x[k] == 0.0) continue;`
// (profitable for sparse ReLU activations, fatal for auto-vectorization:
// the branch makes every lane control-dependent). These kernels drop the
// branch — a zero term contributes exactly +0.0, so for axpy and the
// outer products the results are bitwise unchanged — and strip-mine the
// *reduction* kernel into kLanes = 4 independent lane accumulators that a
// compiler maps onto one 256-bit vector register.
//
// Determinism contract (what the golden tests re-pinned against):
//   * dot combines its lanes in the fixed order ((l0+l1)+(l2+l3)) + tail,
//     where lane m sums terms k ≡ m (mod 4) in ascending k and the tail
//     (n mod 4 trailing terms) is summed sequentially after the lanes.
//     The result depends only on (x, y, n) — never on threading, call
//     site, or repetition — so runs are bitwise reproducible.
//   * axpy and the outer products perform per-element independent
//     updates in ascending j; they are bitwise identical to the scalar
//     reference.
//   * Builds pin -ffp-contract=off (see the top-level CMakeLists): FMA
//     contraction would re-round differently per compiler and silently
//     break cross-toolchain reproducibility. fp_contraction_active()
//     detects a dropped flag at runtime; a ctest guards it.
//
// The pre-vectorization scalar kernels survive as nn::ref (ref.hpp); an
// equivalence sweep bounds |kernels - ref| at 1e-12 relative error across
// the shape grid the LSTM/GRU gate math uses.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pfdrl::nn::kernels {

/// Lane count of the strip-mined reduction (one AVX2 register of
/// doubles). Fixed: changing it changes reduction order, which requires
/// a golden re-bless (docs/performance.md).
inline constexpr std::size_t kLanes = 4;

/// Strip-mined dot product over n elements. Fixed combine order:
/// ((l0 + l1) + (l2 + l3)) + tail (see file header).
[[nodiscard]] inline double dot(const double* x, const double* y,
                                std::size_t n) noexcept {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    l0 += x[k] * y[k];
    l1 += x[k + 1] * y[k + 1];
    l2 += x[k + 2] * y[k + 2];
    l3 += x[k + 3] * y[k + 3];
  }
  double tail = 0.0;
  for (; k < n; ++k) tail += x[k] * y[k];
  return ((l0 + l1) + (l2 + l3)) + tail;
}

/// y[j] += a * x[j] for j in [0, n). Branch-free; x and y must not
/// overlap (all call sites pass disjoint parameter/scratch buffers).
inline void axpy(double a, const double* __restrict x, double* __restrict y,
                 std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

/// Row block width of the fused row kernels below. Four rows share
/// one weight stream: a register tile of kRowBlock x (a few columns)
/// accumulators turns the per-row axpy read-modify-write sweeps into
/// load-once/store-once tiles. Unlike kLanes this is not a reduction
/// order knob — the fused kernels keep every output element a single
/// accumulator, so changing it would not require a golden re-bless.
inline constexpr std::size_t kRowBlock = 4;

/// Fused-row accumulate for a block of kRowBlock rows sharing one
/// weight matrix: z[r][j] += sum_k x[r][k] * w[k * w_stride + j] for
/// j in [0, n), with each (r, j) element a SINGLE accumulator initialized
/// from the stored z value and advanced in ascending k. That is exactly
/// the rounding sequence of running axpy(x[r][k], w + k * w_stride,
/// z[r], n) over k for each row separately — so a row's result does not
/// depend on the rows sharing its tile (docs/fused_training.md) — while
/// the weight row is streamed once per 4 rows and z is touched twice per
/// tile instead of once per k-term.
/// `w_stride` >= n lets callers accumulate into a column window of a
/// wider gate matrix (the GRU candidate block). x rows, w and z rows must
/// not overlap.
inline void fused_acc_rows(const double* const* x, std::size_t m,
                           const double* w, std::size_t w_stride,
                           double* const* z, std::size_t n) noexcept {
#if defined(__AVX2__)
  // Explicit mul-then-add intrinsics (never fmadd): per element the
  // arithmetic sequence is exactly the scalar path's, lanes are
  // independent elements, so this is bitwise the generic code below.
  // Spelled out because the 4x8 accumulator tile must live in ymm
  // registers; the scalar-array form spills under -ffp-contract=off.
  {
    const double* __restrict x0 = x[0];
    const double* __restrict x1 = x[1];
    const double* __restrict x2 = x[2];
    const double* __restrict x3 = x[3];
    double* __restrict z0 = z[0];
    double* __restrict z1 = z[1];
    double* __restrict z2 = z[2];
    double* __restrict z3 = z[3];
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d a00 = _mm256_loadu_pd(z0 + j), a01 = _mm256_loadu_pd(z0 + j + 4);
      __m256d a10 = _mm256_loadu_pd(z1 + j), a11 = _mm256_loadu_pd(z1 + j + 4);
      __m256d a20 = _mm256_loadu_pd(z2 + j), a21 = _mm256_loadu_pd(z2 + j + 4);
      __m256d a30 = _mm256_loadu_pd(z3 + j), a31 = _mm256_loadu_pd(z3 + j + 4);
      const double* wk = w + j;
      for (std::size_t k = 0; k < m; ++k, wk += w_stride) {
        const __m256d w0 = _mm256_loadu_pd(wk);
        const __m256d w1 = _mm256_loadu_pd(wk + 4);
        __m256d b = _mm256_set1_pd(x0[k]);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(b, w0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(b, w1));
        b = _mm256_set1_pd(x1[k]);
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(b, w0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(b, w1));
        b = _mm256_set1_pd(x2[k]);
        a20 = _mm256_add_pd(a20, _mm256_mul_pd(b, w0));
        a21 = _mm256_add_pd(a21, _mm256_mul_pd(b, w1));
        b = _mm256_set1_pd(x3[k]);
        a30 = _mm256_add_pd(a30, _mm256_mul_pd(b, w0));
        a31 = _mm256_add_pd(a31, _mm256_mul_pd(b, w1));
      }
      _mm256_storeu_pd(z0 + j, a00);
      _mm256_storeu_pd(z0 + j + 4, a01);
      _mm256_storeu_pd(z1 + j, a10);
      _mm256_storeu_pd(z1 + j + 4, a11);
      _mm256_storeu_pd(z2 + j, a20);
      _mm256_storeu_pd(z2 + j + 4, a21);
      _mm256_storeu_pd(z3 + j, a30);
      _mm256_storeu_pd(z3 + j + 4, a31);
    }
    for (; j < n; ++j) {
      double a0 = z0[j], a1 = z1[j], a2 = z2[j], a3 = z3[j];
      const double* wk = w + j;
      for (std::size_t k = 0; k < m; ++k, wk += w_stride) {
        const double wv = *wk;
        a0 += x0[k] * wv;
        a1 += x1[k] * wv;
        a2 += x2[k] * wv;
        a3 += x3[k] * wv;
      }
      z0[j] = a0;
      z1[j] = a1;
      z2[j] = a2;
      z3[j] = a3;
    }
    return;
  }
#endif
  const double* __restrict x0 = x[0];
  const double* __restrict x1 = x[1];
  const double* __restrict x2 = x[2];
  const double* __restrict x3 = x[3];
  double* __restrict z0 = z[0];
  double* __restrict z1 = z[1];
  double* __restrict z2 = z[2];
  double* __restrict z3 = z[3];
  constexpr std::size_t kTile = 8;  // 2 AVX2 registers of doubles per row
  std::size_t j = 0;
  for (; j + kTile <= n; j += kTile) {
    double a0[kTile], a1[kTile], a2[kTile], a3[kTile];
    for (std::size_t t = 0; t < kTile; ++t) {
      a0[t] = z0[j + t];
      a1[t] = z1[j + t];
      a2[t] = z2[j + t];
      a3[t] = z3[j + t];
    }
    const double* wk = w + j;
    for (std::size_t k = 0; k < m; ++k, wk += w_stride) {
      const double b0 = x0[k], b1 = x1[k], b2 = x2[k], b3 = x3[k];
      for (std::size_t t = 0; t < kTile; ++t) {
        const double wv = wk[t];
        a0[t] += b0 * wv;
        a1[t] += b1 * wv;
        a2[t] += b2 * wv;
        a3[t] += b3 * wv;
      }
    }
    for (std::size_t t = 0; t < kTile; ++t) {
      z0[j + t] = a0[t];
      z1[j + t] = a1[t];
      z2[j + t] = a2[t];
      z3[j + t] = a3[t];
    }
  }
  for (; j < n; ++j) {
    double a0 = z0[j], a1 = z1[j], a2 = z2[j], a3 = z3[j];
    const double* wk = w + j;
    for (std::size_t k = 0; k < m; ++k, wk += w_stride) {
      const double wv = *wk;
      a0 += x0[k] * wv;
      a1 += x1[k] * wv;
      a2 += x2[k] * wv;
      a3 += x3[k] * wv;
    }
    z0[j] = a0;
    z1[j] = a1;
    z2[j] = a2;
    z3[j] = a3;
  }
}

/// Full gate-preactivation tile for a block of kRowBlock rows:
/// z[r][j] = b[j] + sum_k x[r][k] * wx[k * w_stride + j]
///                + sum_k hp[r][k] * wh[k * w_stride + j]
/// with every (r, j) element one accumulator initialized from the bias
/// and advanced wx terms first then wh terms, each in ascending k — the
/// exact rounding sequence of writing the bias row and running the two
/// axpy sweeps separately. The AVX2 path keeps the whole 4x8 tile in
/// registers across BOTH weight passes, so z is stored exactly once per
/// tile instead of round-tripping between the bias fill and each
/// accumulate pass. Pass hm == 0 to skip the second matrix (dense
/// layers).
inline void fused_gates_rows(const double* b, const double* const* x,
                             std::size_t fm, const double* wx,
                             const double* const* hp, std::size_t hm,
                             const double* wh, std::size_t w_stride,
                             double* const* z, std::size_t n) noexcept {
#if defined(__AVX2__)
  {
    const double* __restrict x0 = x[0];
    const double* __restrict x1 = x[1];
    const double* __restrict x2 = x[2];
    const double* __restrict x3 = x[3];
    double* __restrict z0 = z[0];
    double* __restrict z1 = z[1];
    double* __restrict z2 = z[2];
    double* __restrict z3 = z[3];
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256d b0 = _mm256_loadu_pd(b + j);
      const __m256d b1 = _mm256_loadu_pd(b + j + 4);
      __m256d a00 = b0, a01 = b1;
      __m256d a10 = b0, a11 = b1;
      __m256d a20 = b0, a21 = b1;
      __m256d a30 = b0, a31 = b1;
      const double* wk = wx + j;
      for (std::size_t k = 0; k < fm; ++k, wk += w_stride) {
        const __m256d w0 = _mm256_loadu_pd(wk);
        const __m256d w1 = _mm256_loadu_pd(wk + 4);
        __m256d s = _mm256_set1_pd(x0[k]);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(s, w0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(s, w1));
        s = _mm256_set1_pd(x1[k]);
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(s, w0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(s, w1));
        s = _mm256_set1_pd(x2[k]);
        a20 = _mm256_add_pd(a20, _mm256_mul_pd(s, w0));
        a21 = _mm256_add_pd(a21, _mm256_mul_pd(s, w1));
        s = _mm256_set1_pd(x3[k]);
        a30 = _mm256_add_pd(a30, _mm256_mul_pd(s, w0));
        a31 = _mm256_add_pd(a31, _mm256_mul_pd(s, w1));
      }
      if (hm != 0) {
        const double* __restrict h0 = hp[0];
        const double* __restrict h1 = hp[1];
        const double* __restrict h2 = hp[2];
        const double* __restrict h3 = hp[3];
        const double* whk = wh + j;
        for (std::size_t k = 0; k < hm; ++k, whk += w_stride) {
          const __m256d w0 = _mm256_loadu_pd(whk);
          const __m256d w1 = _mm256_loadu_pd(whk + 4);
          __m256d s = _mm256_set1_pd(h0[k]);
          a00 = _mm256_add_pd(a00, _mm256_mul_pd(s, w0));
          a01 = _mm256_add_pd(a01, _mm256_mul_pd(s, w1));
          s = _mm256_set1_pd(h1[k]);
          a10 = _mm256_add_pd(a10, _mm256_mul_pd(s, w0));
          a11 = _mm256_add_pd(a11, _mm256_mul_pd(s, w1));
          s = _mm256_set1_pd(h2[k]);
          a20 = _mm256_add_pd(a20, _mm256_mul_pd(s, w0));
          a21 = _mm256_add_pd(a21, _mm256_mul_pd(s, w1));
          s = _mm256_set1_pd(h3[k]);
          a30 = _mm256_add_pd(a30, _mm256_mul_pd(s, w0));
          a31 = _mm256_add_pd(a31, _mm256_mul_pd(s, w1));
        }
      }
      _mm256_storeu_pd(z0 + j, a00);
      _mm256_storeu_pd(z0 + j + 4, a01);
      _mm256_storeu_pd(z1 + j, a10);
      _mm256_storeu_pd(z1 + j + 4, a11);
      _mm256_storeu_pd(z2 + j, a20);
      _mm256_storeu_pd(z2 + j + 4, a21);
      _mm256_storeu_pd(z3 + j, a30);
      _mm256_storeu_pd(z3 + j + 4, a31);
    }
    for (; j < n; ++j) {
      double a0 = b[j], a1 = b[j], a2 = b[j], a3 = b[j];
      const double* wk = wx + j;
      for (std::size_t k = 0; k < fm; ++k, wk += w_stride) {
        const double wv = *wk;
        a0 += x0[k] * wv;
        a1 += x1[k] * wv;
        a2 += x2[k] * wv;
        a3 += x3[k] * wv;
      }
      if (hm != 0) {
        const double* whk = wh + j;
        for (std::size_t k = 0; k < hm; ++k, whk += w_stride) {
          const double wv = *whk;
          a0 += hp[0][k] * wv;
          a1 += hp[1][k] * wv;
          a2 += hp[2][k] * wv;
          a3 += hp[3][k] * wv;
        }
      }
      z0[j] = a0;
      z1[j] = a1;
      z2[j] = a2;
      z3[j] = a3;
    }
    return;
  }
#endif
  for (std::size_t r = 0; r < kRowBlock; ++r) {
    for (std::size_t j = 0; j < n; ++j) z[r][j] = b[j];
  }
  fused_acc_rows(x, fm, wx, w_stride, z, n);
  if (hm != 0) fused_acc_rows(hp, hm, wh, w_stride, z, n);
}

// ---- Slab backward kernels --------------------------------------------
// The member backward passes hand all of a batch's rows to one call:
// row r of an operand starts at base + r * stride, so a caller can pass
// a column window of a wider gate matrix (the GRU candidate block) as
// base + offset with the full row stride.

/// Outer-product accumulate over every row of a slice:
/// g[k * g_stride + j] += x[r * x_stride + k] * d[r * d_stride + j] for
/// k < m, j < n and r = 0 .. rows-1, and, when b is non-null,
/// b[j] += d[r * d_stride + j]. Each element is one accumulator that
/// adds its rows in ascending r, each term one rounding — bitwise the
/// per-row sequence nn::ref::outer_acc(x_r, m, d_r, n, g) (plus the bias
/// loop) for r = 0, 1, .... The AVX2 path keeps a 4 (k) x 8 (j) tile in
/// registers across all rows (columns past the last 8-block ride a
/// 4 (k) x 1..7 (j) tile whose lanes run along k), so g is loaded and
/// stored once per slice instead of once per row. g must not overlap x,
/// d or b.
void slab_outer_acc(const double* x, std::size_t x_stride, std::size_t m,
                    const double* d, std::size_t d_stride, std::size_t n,
                    std::size_t rows, double* g, std::size_t g_stride,
                    double* b) noexcept;

/// Input gradients over every row of a slice:
/// out[r * out_stride + k] = dot(d + r * d_stride, w + k * w_stride, n)
/// for r < rows, k < m, each bitwise kernels::dot. The AVX2 path runs
/// 2 rows x 4 k at a time: it keeps dot()'s four lane partials per
/// (row, k) in registers, transposes the 4x4 block of partials once and
/// combines ((l0 + l1) + (l2 + l3)) + tail for four k in one vector,
/// instead of a horizontal reduction per (row, k). out must not overlap
/// d or w.
void slab_dot(const double* d, std::size_t d_stride, std::size_t n,
              std::size_t rows, const double* w, std::size_t w_stride,
              std::size_t m, double* out, std::size_t out_stride) noexcept;

/// x[j] = 1 / (1 + exp(-x[j])) for j in [0, n). Batched so the whole
/// gate slice goes through one call: with libmvec available (see
/// vector_math_active()) groups of kLanes elements run through the
/// 4-wide vector exp and the n mod kLanes tail stays scalar. The result
/// for a given (contents, n) is identical on every call — position in
/// the batch is fixed, so runs stay bitwise reproducible per build —
/// but the vector and scalar builds differ by a few ulp (glibc bounds
/// libmvec at 4 ulp), which is why recurrent-model expectations are
/// tolerance-based, never bitwise across build configurations.
void sigmoid_inplace(double* x, std::size_t n) noexcept;

/// x[j] = tanh(x[j]) for j in [0, n). Same batching and determinism
/// contract as sigmoid_inplace.
void tanh_inplace(double* x, std::size_t n) noexcept;

/// True when sigmoid_inplace/tanh_inplace were compiled against libmvec
/// (AVX2 ISA + glibc vector math present at configure time). Exported by
/// the obs layer as the `nn.kernel_vector_math` gauge so run artifacts
/// record which transcendental path produced them.
[[nodiscard]] bool vector_math_active() noexcept;

/// True when the compiler contracted a * b + c into an FMA — i.e. the
/// -ffp-contract=off pin was dropped. Evaluated on the library's own
/// translation unit so it tests the flags the kernels were built with.
[[nodiscard]] bool fp_contraction_active() noexcept;

/// Process-wide count of member train steps of the forecaster networks
/// (nn::lstm/gru/mlp_train_step, one per member per batch).
/// Exported by the obs layer as `nn.kernel_train_batches`; one relaxed
/// atomic add per member step, so the telemetry costs nothing the inner
/// loops can feel.
[[nodiscard]] std::uint64_t total_train_batches() noexcept;
/// Bump the train-batch counter (once per member train step).
void note_train_batch() noexcept;

}  // namespace pfdrl::nn::kernels
