#include "nn/activation.hpp"

#include <cassert>
#include <cmath>
#include <span>

namespace pfdrl::nn {

double activate(Activation a, double x) noexcept {
  switch (a) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kTanh: return std::tanh(x);
  }
  return x;
}

double activate_grad_from_output(Activation a, double y) noexcept {
  switch (a) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return y > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kTanh: return 1.0 - y * y;
  }
  return 1.0;
}

namespace {
// grad[i] *= g(y[i]) with the gradient functor inlined per element.
template <class G>
void scale_elems(std::span<const double> ys, std::span<double> gs, G&& g) {
  for (std::size_t i = 0; i < gs.size(); ++i) gs[i] *= g(ys[i]);
}
}  // namespace

// The matrix kernels dispatch on the activation kind once per call and
// hand Matrix::apply / scale_elems a concrete lambda — same math as the
// per-element activate()/activate_grad_from_output() switches, minus the
// per-element branch.
void activate_inplace(Activation a, Matrix& m) {
  switch (a) {
    case Activation::kIdentity: return;
    case Activation::kRelu:
      m.apply([](double x) noexcept { return x > 0.0 ? x : 0.0; });
      return;
    case Activation::kSigmoid:
      m.apply([](double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); });
      return;
    case Activation::kTanh:
      m.apply([](double x) noexcept { return std::tanh(x); });
      return;
  }
}

void scale_by_activation_grad(Activation a, const Matrix& y, Matrix& grad) {
  assert(y.rows() == grad.rows() && y.cols() == grad.cols());
  const auto ys = y.data();
  const auto gs = grad.data();
  switch (a) {
    case Activation::kIdentity: return;
    case Activation::kRelu:
      scale_elems(ys, gs, [](double v) noexcept { return v > 0.0 ? 1.0 : 0.0; });
      return;
    case Activation::kSigmoid:
      scale_elems(ys, gs, [](double v) noexcept { return v * (1.0 - v); });
      return;
    case Activation::kTanh:
      scale_elems(ys, gs, [](double v) noexcept { return 1.0 - v * v; });
      return;
  }
}

const char* activation_name(Activation a) noexcept {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
  }
  return "?";
}

}  // namespace pfdrl::nn
