// Scalar reference kernels — the pre-vectorization implementations,
// preserved verbatim so the strip-mined nn::kernels layer stays testable
// against the math it replaced.
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

namespace pfdrl::nn::ref {

/// Single-accumulator dot product, ascending k.
[[nodiscard]] double dot(const double* x, const double* y,
                         std::size_t n) noexcept;

/// y[j] += a * x[j], with the historical `a == 0` skip (bitwise
/// equivalent to the branch-free production axpy: skipped terms
/// contribute exactly +0.0).
void axpy(double a, const double* x, double* y, std::size_t n) noexcept;

/// One Adam step in the scalar order nn::Adam::step's vector lanes must
/// reproduce: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
/// p -= (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps). `t` is the 1-based
/// step count after this step; m and v match params in size.
void adam_step(std::span<double> params, std::span<const double> grads,
               std::span<double> m, std::span<double> v, double lr,
               double beta1, double beta2, double eps, std::int64_t t);

}  // namespace pfdrl::nn::ref
