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

/// grad(i) *= f'(y(i)) over every element, where y (grad's shape) is the
/// cached forward output.
void scale_by_activation_grad(Activation a, const Matrix& y, Matrix& grad);

const char* activation_name(Activation a) noexcept;

}  // namespace pfdrl::nn
