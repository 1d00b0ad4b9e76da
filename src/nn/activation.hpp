// Activation functions and their derivatives. Derivatives are expressed
// in terms of the *activation output* where that is cheaper (sigmoid,
// tanh), which is what the layer caches during the forward pass.
#pragma once

#include "nn/matrix.hpp"

namespace pfdrl::nn {

enum class Activation { kIdentity, kRelu, kSigmoid, kTanh };

/// Scalar activation.
double activate(Activation a, double x) noexcept;
/// Derivative given the activation *output* y = activate(a, x).
double activate_grad_from_output(Activation a, double y) noexcept;

/// In-place matrix activation.
void activate_inplace(Activation a, Matrix& m);

/// Row-range forms for fused slabs (nn/fused.hpp), applied to rows
/// [row_begin, row_begin + rows) only: the element-independent
/// activation, and grad(i) *= f'(y(i)) where y is the cached forward
/// output. Per-member application over disjoint slices is bitwise the
/// slab-wide call.
void activate_rows(Activation a, Matrix& m, std::size_t row_begin,
                   std::size_t rows);
void scale_by_activation_grad_rows(Activation a, const Matrix& y, Matrix& grad,
                                   std::size_t row_begin, std::size_t rows);

const char* activation_name(Activation a) noexcept;

}  // namespace pfdrl::nn
