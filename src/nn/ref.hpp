// Scalar reference kernels — the pre-vectorization implementations,
// preserved verbatim so the strip-mined nn::kernels layer stays testable
// against the math it replaced — and the whole-matrix forms the
// row-range production paths are checked against (outer_acc for the slab
// backward kernels, loss_grad for loss_grad_rows).
//
// These are the single-accumulator, ascending-k, zero-skipping loops the
// library shipped before the multi-accumulator rewrite (the semantics the
// pre-re-bless golden constants were recorded under). They are *not*
// called from production code: they are the kernel oracle.
// tests/nn_kernels_test.cpp sweeps a shape grid (including the LSTM/GRU
// gate shapes) and bounds the production row, slab and dense kernels
// against these — axpy-family results must match bitwise, dot-family
// results differ only by reassociation rounding (1e-12 relative). Keep
// them dumb and obviously correct; never "optimize" them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "nn/loss.hpp"
#include "nn/matrix.hpp"

namespace pfdrl::nn::ref {

/// Single-accumulator dot product, ascending k.
[[nodiscard]] double dot(const double* x, const double* y,
                         std::size_t n) noexcept;

/// y[j] += a * x[j], with the historical `a == 0` skip (bitwise
/// equivalent to the branch-free production axpy: skipped terms
/// contribute exactly +0.0).
void axpy(double a, const double* x, double* y, std::size_t n) noexcept;

/// Outer-product accumulate: g[k * n + j] += x[k] * d[j] for k in [0, m),
/// j in [0, n), k-row by k-row in ascending j. No zero skip: bitwise the
/// per-row kernels::axpy sequence, signed zeros included — the order
/// kernels::slab_outer_acc keeps per row.
void outer_acc(const double* x, std::size_t m, const double* d,
               std::size_t n, double* g) noexcept;

/// d(mean loss)/d(pred) over all of pred into `grad` (resized to pred's
/// shape); loss_grad_rows over the full row range is bitwise this.
void loss_grad(LossKind kind, const Matrix& pred, const Matrix& target,
               Matrix& grad, double huber_delta = 1.0);

/// One Adam step in the scalar order nn::Adam::step's vector lanes must
/// reproduce: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
/// p -= (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps). `t` is the 1-based
/// step count after this step; m and v match params in size.
void adam_step(std::span<double> params, std::span<const double> grads,
               std::span<double> m, std::span<double> v, double lr,
               double beta1, double beta2, double eps, std::int64_t t);

}  // namespace pfdrl::nn::ref
