// Span-based dense-layer kernels.
//
// The MLP (mlp.hpp) stores all parameters of all layers in one flat
// buffer and calls these kernels with per-layer slices; that layout is
// what makes PFDRL's base/personalization split (paper §3.3.2) a simple
// prefix/suffix of the flat vector.
//
// Weight layout for a layer with `in` inputs and `out` outputs:
//   W: in*out doubles, row-major with input-index major (W[k][j]),
//   b: out doubles,
// packed contiguously as [W | b] (size in*out + out).
#pragma once

#include <cstddef>
#include <span>

#include "nn/activation.hpp"
#include "nn/init.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {

/// Number of parameters for a dense layer of the given shape.
constexpr std::size_t dense_param_count(std::size_t in, std::size_t out) {
  return in * out + out;
}

/// y = act(x * W + b).
/// x: batch x in; y: batch x out (reshaped in place, reusing capacity);
/// params: [W|b]. Runs nn::dense_forward_slice over every row — 4-row
/// register tiles, leftover rows through matvec1 — so a row's result does
/// not depend on the batch it sits in.
void dense_forward(std::span<const double> params, std::size_t in,
                   std::size_t out, const Matrix& x, Activation act,
                   Matrix& y);

/// One-row kernel: y[j] = b[j] + sum_k x[k] * W[k][j] (no activation).
/// With AVX2, 16 columns per pass in four independent ymm accumulators,
/// then 4-column steps, then a scalar tail; every output is one
/// accumulator advanced in ascending k, so results are bitwise identical
/// to the 4-row tile (kernels::fused_gates_rows) and to nn::ref::axpy
/// sweeps. This is the per-decision hot path of the EMS loop: one call
/// per layer per DQN decision, millions of times per multi-home run.
void matvec1(std::span<const double> w, std::span<const double> b,
             std::span<const double> x, std::size_t in, std::size_t out,
             std::span<double> y) noexcept;

/// Initialize a packed [W|b] slice: weights per `scheme`, bias zero.
void dense_init(std::span<double> params, std::size_t in, std::size_t out,
                InitScheme scheme, util::Rng& rng);

}  // namespace pfdrl::nn
