// Multi-layer perceptron with all parameters in a single flat buffer.
//
// Layer i occupies the contiguous slice [layer_offset(i),
// layer_offset(i) + layer_param_count(i)). PFDRL's personalization split
// (paper §3.3.2, Eq. 7/8) treats layers [0, alpha) as federated "base"
// layers and the rest as local "personalization" layers; with this layout
// that is exactly the flat prefix [0, layer_offset(alpha)).
//
// The class owns parameters and runs inference; training (forward
// caches, backward, the optimizer step) runs through nn::mlp_forward /
// nn::mlp_backward on the training thread's scratch, which also holds
// the gradients for the one step that needs them (nn/fused.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {

class Workspace;

class Mlp {
 public:
  /// dims = {input, hidden..., output}; at least {in, out}.
  /// Hidden layers use `hidden_act`, the final layer `output_act`.
  Mlp(std::vector<std::size_t> dims, Activation hidden_act,
      Activation output_act, InitScheme scheme, util::Rng& rng);

  /// Number of dense layers (dims.size() - 1).
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return dims_.size() - 1;
  }
  [[nodiscard]] std::size_t input_dim() const noexcept { return dims_.front(); }
  [[nodiscard]] std::size_t output_dim() const noexcept { return dims_.back(); }
  [[nodiscard]] const std::vector<std::size_t>& dims() const noexcept {
    return dims_;
  }
  [[nodiscard]] Activation hidden_activation() const noexcept {
    return hidden_act_;
  }
  [[nodiscard]] Activation output_activation() const noexcept {
    return output_act_;
  }

  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return params_.size();
  }
  [[nodiscard]] std::span<double> parameters() noexcept { return params_; }
  [[nodiscard]] std::span<const double> parameters() const noexcept {
    return params_;
  }
  /// Flat offset of layer i's slice; layer_offset(num_layers()) is the
  /// total parameter count, so [offset(a), offset(b)) spans layers [a, b).
  [[nodiscard]] std::size_t layer_offset(std::size_t i) const noexcept {
    return offsets_[i];
  }
  [[nodiscard]] std::size_t layer_param_count(std::size_t i) const noexcept {
    return offsets_[i + 1] - offsets_[i];
  }
  [[nodiscard]] std::span<double> layer_parameters(std::size_t i) noexcept {
    return std::span(params_).subspan(offsets_[i], layer_param_count(i));
  }
  [[nodiscard]] std::span<const double> layer_parameters(
      std::size_t i) const noexcept {
    return std::span(params_).subspan(offsets_[i], layer_param_count(i));
  }

  /// Replace all parameters. Size must equal parameter_count().
  void set_parameters(std::span<const double> values);

  /// Inference. Allocates per call; the hot path is the workspace
  /// overload below.
  [[nodiscard]] Matrix predict(const Matrix& x) const;
  /// Allocation-free inference: every per-layer activation lives in a
  /// workspace slot (one take() per layer, exact shapes, so steady-state
  /// repeats grow nothing). The returned reference points into `ws` and
  /// stays valid until the slot is recycled by a later reset()/take()
  /// cycle; it survives further take() calls within the same cycle.
  const Matrix& predict(const Matrix& x, Workspace& ws) const;

  /// Structural equality of shapes (same dims/activations) — a
  /// precondition for federated parameter exchange.
  [[nodiscard]] bool same_architecture(const Mlp& other) const noexcept;

 private:
  std::vector<std::size_t> dims_;
  Activation hidden_act_;
  Activation output_act_;
  std::vector<std::size_t> offsets_;  // per-layer flat offsets, + total
  std::vector<double> params_;

  [[nodiscard]] Activation layer_act(std::size_t i) const noexcept {
    return i + 1 == num_layers() ? output_act_ : hidden_act_;
  }
};

}  // namespace pfdrl::nn
