// Equivalence and determinism suite for the strip-mined nn::kernels
// layer against the preserved scalar reference (nn::ref):
//   * axpy-family results must match the reference BITWISE (dropping the
//     zero-skip branch adds exact +0.0 terms);
//   * dot-family results (reassociated into 4 lanes) must stay within
//     1e-12 relative error across a shape grid that includes the LSTM/GRU
//     gate widths (4H = 128, 3H = 96, and ragged sizes for the tail path);
//   * the lane combine order is pinned (a permutation-sensitivity probe);
//   * the slab backward kernels must match their per-row sequence
//     BITWISE, signed zeros, strides and column windows included;
//   * FP contraction must be off in the flags this binary was built with.
#include "nn/kernels.hpp"

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/matrix.hpp"
#include "nn/ref.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {
namespace {

std::vector<double> random_vec(std::size_t n, util::Rng& rng,
                               double sparsity = 0.0) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform() < sparsity ? 0.0 : rng.normal();
  }
  return v;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng,
                     double sparsity = 0.0) {
  Matrix m(rows, cols);
  for (double& x : m.data()) {
    x = rng.uniform() < sparsity ? 0.0 : rng.normal();
  }
  return m;
}

double rel_err(double got, double want) {
  const double scale = std::max(1.0, std::abs(want));
  return std::abs(got - want) / scale;
}

// The shape grid: the dimensions the recurrent gate math actually uses
// (H = 32 → 4H = 128, 3H = 96; H = 7 for ragged-tail coverage) plus
// degenerate and sub-lane sizes.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16,
                              28, 31, 32, 96, 100, 128, 257};

TEST(NnKernels, DotMatchesReferenceWithinTolerance) {
  util::Rng rng(7);
  for (const std::size_t n : kSizes) {
    for (const double sparsity : {0.0, 0.5}) {
      const auto x = random_vec(n, rng, sparsity);
      const auto y = random_vec(n, rng, sparsity);
      const double got = kernels::dot(x.data(), y.data(), n);
      const double want = ref::dot(x.data(), y.data(), n);
      EXPECT_LE(rel_err(got, want), 1e-12) << "n=" << n;
    }
  }
}

TEST(NnKernels, DotIsDeterministicAcrossCalls) {
  util::Rng rng(8);
  const auto x = random_vec(257, rng);
  const auto y = random_vec(257, rng);
  const double first = kernels::dot(x.data(), y.data(), x.size());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(kernels::dot(x.data(), y.data(), x.size()), first);
  }
}

// Pins the documented combine order ((l0+l1)+(l2+l3)) + tail: an input
// crafted so any other association of the lane partials produces a
// different double. Lane partials: l0 = 1.0, l1 = 0x1p-53, l2 = -1.0,
// l3 = 0x1p-53, tail (n = 9) = 0x1p-60.
//   documented: ((1 + 2^-53) + (-1 + 2^-53)) + 2^-60
//     = (1.0 + (-1 + 2^-53)) + 2^-60         [1 + 2^-53 rounds to 1.0]
//     = 2^-53 + 2^-60
// whereas e.g. ((l0+l2)+(l1+l3)) + tail = (0 + 2^-52) + 2^-60 which is
// a strictly different value. The test also guards kLanes = 4: any lane
// count change re-buckets the terms and breaks the expectation.
TEST(NnKernels, DotLaneCombineOrderPinned) {
  static_assert(kernels::kLanes == 4);
  const double x[9] = {1.0, 0x1p-53, -1.0, 0x1p-53, 0.0, 0.0, 0.0, 0.0,
                       0x1p-60};
  const double y[9] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const double got = kernels::dot(x, y, 9);
  const double want = ((1.0 + 0x1p-53) + (-1.0 + 0x1p-53)) + 0x1p-60;
  EXPECT_EQ(got, want);
  EXPECT_EQ(want, 0x1p-53 + 0x1p-60);  // sanity: the order matters
  EXPECT_NE(got, (0x1p-53 + 0x1p-53) + 0x1p-60);
}

TEST(NnKernels, AxpyBitwiseMatchesReference) {
  util::Rng rng(9);
  for (const std::size_t n : kSizes) {
    // Sparse scalars exercise the dropped a == 0 skip: +0.0 terms must
    // leave y bitwise unchanged.
    for (const double a : {0.0, 1.7, -0.3}) {
      const auto x = random_vec(n, rng, 0.3);
      auto y_got = random_vec(n, rng);
      auto y_want = y_got;
      kernels::axpy(a, x.data(), y_got.data(), n);
      ref::axpy(a, x.data(), y_want.data(), n);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(y_got[j], y_want[j]) << "n=" << n << " a=" << a;
      }
    }
  }
}

// The outer-product oracle of the slab kernels is rows of the production
// axpy, bit for bit.
TEST(NnKernels, OuterAccBitwiseMatchesRowwiseReference) {
  util::Rng rng(10);
  const std::size_t m = 13, n = 96;  // GRU gate width, ragged row count
  const auto x = random_vec(m, rng, 0.4);
  const auto d = random_vec(n, rng);
  auto g_got = random_vec(m * n, rng);
  auto g_want = g_got;
  ref::outer_acc(x.data(), m, d.data(), n, g_got.data());
  for (std::size_t k = 0; k < m; ++k) {
    kernels::axpy(x[k], d.data(), g_want.data() + k * n, n);
  }
  EXPECT_EQ(g_got, g_want);
}

TEST(NnKernels, SquaredNormMatchesDotOfSelf) {
  util::Rng rng(15);
  const Matrix m = random_matrix(9, 31, rng);
  EXPECT_EQ(m.squared_norm(),
            kernels::dot(m.data().data(), m.data().data(), m.size()));
}

// The batched gate nonlinearities may route through libmvec (4 ulp
// accuracy bound), so they are tolerance-checked against the scalar
// formulas — never bitwise across build configurations.
TEST(NnKernels, SigmoidInplaceMatchesScalarWithinTolerance) {
  util::Rng rng(16);
  for (const std::size_t n : kSizes) {
    auto x = random_vec(n, rng);
    for (double& v : x) v *= 4.0;  // cover the saturating range too
    auto got = x;
    kernels::sigmoid_inplace(got.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      const double want = 1.0 / (1.0 + std::exp(-x[j]));
      EXPECT_LE(rel_err(got[j], want), 1e-12) << "n=" << n << " j=" << j;
    }
  }
}

TEST(NnKernels, TanhInplaceMatchesScalarWithinTolerance) {
  util::Rng rng(17);
  for (const std::size_t n : kSizes) {
    auto x = random_vec(n, rng);
    auto got = x;
    kernels::tanh_inplace(got.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_LE(rel_err(got[j], std::tanh(x[j])), 1e-12)
          << "n=" << n << " j=" << j;
    }
  }
}

// Per the determinism contract the batched nonlinearities depend only on
// (contents, n): repeat calls on the same slice must be bitwise equal,
// including the ragged tail that falls off the vector path.
TEST(NnKernels, BatchedNonlinearitiesDeterministicAcrossCalls) {
  util::Rng rng(18);
  const auto x = random_vec(131, rng);  // 131 = 32 groups of 4 + tail of 3
  auto first_s = x, first_t = x;
  kernels::sigmoid_inplace(first_s.data(), first_s.size());
  kernels::tanh_inplace(first_t.data(), first_t.size());
  for (int i = 0; i < 5; ++i) {
    auto s = x, t = x;
    kernels::sigmoid_inplace(s.data(), s.size());
    kernels::tanh_inplace(t.data(), t.size());
    EXPECT_EQ(s, first_s);
    EXPECT_EQ(t, first_t);
  }
}

TEST(NnKernels, SigmoidInplaceSaturatesCleanly) {
  double x[6] = {-1000.0, -40.0, 0.0, 40.0, 1000.0, 0.5};
  kernels::sigmoid_inplace(x, 6);
  EXPECT_EQ(x[0], 0.0);
  EXPECT_NEAR(x[1], 0.0, 1e-15);
  EXPECT_EQ(x[2], 0.5);
  EXPECT_NEAR(x[3], 1.0, 1e-15);
  EXPECT_EQ(x[4], 1.0);
  EXPECT_GT(x[5], 0.5);
}

TEST(NnKernels, VectorMathFlagStable) {
  // Machine-dependent value, but it must be a stable build-time property.
  EXPECT_EQ(kernels::vector_math_active(), kernels::vector_math_active());
}

// Build-flag guard: fails if -ffp-contract=off is ever dropped from the
// top-level CMakeLists. Contraction would re-round a*b+c differently per
// compiler/arch and silently invalidate every golden constant.
TEST(NnKernels, FpContractionDisabled) {
  EXPECT_FALSE(kernels::fp_contraction_active());
}

TEST(NnKernels, TrainBatchCounterMonotonic) {
  const std::uint64_t before = kernels::total_train_batches();
  kernels::note_train_batch();
  kernels::note_train_batch();
  EXPECT_EQ(kernels::total_train_batches(), before + 2);
}

// ---- Slab backward kernels ---------------------------------------------

// Values with signed zeros sprinkled in: -0.0 + +0.0 is +0.0, so a kernel
// that skipped, reordered or pre-summed terms would flip signs here.
std::vector<double> signed_zero_vec(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    const double u = rng.uniform();
    x = u < 0.15 ? -0.0 : (u < 0.25 ? 0.0 : rng.normal());
  }
  return v;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

const std::size_t kSlabRows[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33};
const std::size_t kSlabM[] = {1, 3, 4, 5, 18, 32, 64};
const std::size_t kSlabN[] = {1, 3, 4, 7, 8, 9, 32, 128};

// slab_outer_acc against the per-row sequence it replaces: for each row,
// the bias loop and nn::ref::outer_acc (itself bitwise kernels::axpy per
// k-row), on operands with row strides wider than their extents.
TEST(NnKernels, SlabOuterAccMatchesPerRowBitwise) {
  util::Rng rng(21);
  for (const std::size_t rows : kSlabRows) {
    for (const std::size_t m : kSlabM) {
      for (const std::size_t n : kSlabN) {
        const std::size_t xs = m + 2, ds = n + 3, gs = n + 1;
        const auto x = signed_zero_vec(rows * xs, rng);
        const auto d = signed_zero_vec(rows * ds, rng);
        auto g_got = signed_zero_vec(m * gs, rng);
        auto b_got = signed_zero_vec(n, rng);
        auto g_want = g_got;
        auto b_want = b_got;
        kernels::slab_outer_acc(x.data(), xs, m, d.data(), ds, n, rows,
                                g_got.data(), gs, b_got.data());
        std::vector<double> dense(m * n);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t j = 0; j < n; ++j) b_want[j] += d[r * ds + j];
          // outer_acc takes a dense g: gather the strided rows, apply
          // this row's outer product, scatter them back.
          for (std::size_t k = 0; k < m; ++k) {
            for (std::size_t j = 0; j < n; ++j) {
              dense[k * n + j] = g_want[k * gs + j];
            }
          }
          ref::outer_acc(x.data() + r * xs, m, d.data() + r * ds, n,
                         dense.data());
          for (std::size_t k = 0; k < m; ++k) {
            for (std::size_t j = 0; j < n; ++j) {
              g_want[k * gs + j] = dense[k * n + j];
            }
          }
        }
        for (std::size_t i = 0; i < g_got.size(); ++i) {
          ASSERT_TRUE(same_bits(g_got[i], g_want[i]))
              << "rows=" << rows << " m=" << m << " n=" << n << " i=" << i;
        }
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_TRUE(same_bits(b_got[j], b_want[j]))
              << "rows=" << rows << " m=" << m << " n=" << n << " j=" << j;
        }
      }
    }
  }
}

// slab_dot against one kernels::dot per (row, k): same lanes, same
// combine, same tail — every output bit-identical, signed zeros included.
TEST(NnKernels, SlabDotMatchesPerRowDotBitwise) {
  util::Rng rng(22);
  for (const std::size_t rows : kSlabRows) {
    for (const std::size_t m : kSlabM) {
      for (const std::size_t n : kSlabN) {
        const std::size_t ds = n + 3, ws = n + 1, os = m + 2;
        const auto d = signed_zero_vec(rows * ds, rng);
        const auto w = signed_zero_vec(m * ws, rng);
        std::vector<double> got(rows * os, 7.0);
        kernels::slab_dot(d.data(), ds, n, rows, w.data(), ws, m, got.data(),
                          os);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t k = 0; k < os; ++k) {
            const double want =
                k < m ? kernels::dot(d.data() + r * ds, w.data() + k * ws, n)
                      : 7.0;  // padding columns are never written
            ASSERT_TRUE(same_bits(got[r * os + k], want))
                << "rows=" << rows << " m=" << m << " n=" << n << " r=" << r
                << " k=" << k;
          }
        }
      }
    }
  }
}

// Against the scalar reference: the outer product is bitwise ref::axpy
// (no signed zeros in the accumulator, where ref's zero-skip would
// differ), the dots agree with ref::dot up to lane reassociation.
TEST(NnKernels, SlabKernelsMatchScalarReference) {
  util::Rng rng(23);
  const std::size_t rows = 13, m = 18, n = 33;
  const auto x = random_vec(rows * m, rng, 0.3);
  const auto d = random_vec(rows * n, rng);
  const auto w = random_vec(m * n, rng);
  auto g_got = random_vec(m * n, rng);
  auto g_want = g_got;
  kernels::slab_outer_acc(x.data(), m, m, d.data(), n, n, rows, g_got.data(),
                          n, nullptr);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < m; ++k) {
      ref::axpy(x[r * m + k], d.data() + r * n, g_want.data() + k * n, n);
    }
  }
  EXPECT_EQ(g_got, g_want);
  std::vector<double> dx(rows * m);
  kernels::slab_dot(d.data(), n, n, rows, w.data(), n, m, dx.data(), m);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_LT(rel_err(dx[r * m + k],
                        ref::dot(d.data() + r * n, w.data() + k * n, n)),
                1e-12);
    }
  }
}

// The GRU's column windows: the candidate block of a 3h-wide gate row
// (base + 2h, stride 3h) as the delta operand of both kernels, and the
// matching window of W_h as the gradient/weight operand.
TEST(NnKernels, SlabKernelsOnGruColumnWindowBitwise) {
  util::Rng rng(24);
  const std::size_t h = 7, g3 = 3 * h;
  for (const std::size_t rows : {1, 4, 9, 32}) {
    const auto dz = signed_zero_vec(rows * g3, rng);
    const auto coeff = signed_zero_vec(rows * h, rng);
    const auto wh = signed_zero_vec(h * g3, rng);
    auto g_got = signed_zero_vec(h * g3, rng);
    auto g_want = g_got;
    kernels::slab_outer_acc(coeff.data(), h, h, dz.data() + 2 * h, g3, h, rows,
                            g_got.data() + 2 * h, g3, nullptr);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t k = 0; k < h; ++k) {
        kernels::axpy(coeff[r * h + k], dz.data() + r * g3 + 2 * h,
                      g_want.data() + k * g3 + 2 * h, h);
      }
    }
    for (std::size_t i = 0; i < g_got.size(); ++i) {
      ASSERT_TRUE(same_bits(g_got[i], g_want[i])) << "rows=" << rows;
    }
    std::vector<double> got(rows * h);
    kernels::slab_dot(dz.data() + 2 * h, g3, h, rows, wh.data() + 2 * h, g3, h,
                      got.data(), h);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t k = 0; k < h; ++k) {
        ASSERT_TRUE(same_bits(
            got[r * h + k],
            kernels::dot(dz.data() + r * g3 + 2 * h, wh.data() + k * g3 + 2 * h,
                         h)))
            << "rows=" << rows << " r=" << r << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace pfdrl::nn
