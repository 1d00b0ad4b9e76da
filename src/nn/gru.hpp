// Single-layer GRU regressor with a dense head — the lighter recurrent
// alternative to the LSTM (extension beyond the paper; compared in
// bench/ablation_design). Inference lives here; training runs through
// nn::gru_train_step (nn/fused.hpp). Same flat-parameter contract as the
// LSTM so it can participate in federated averaging:
//   [ Wx (F x 3H) | Wh (H x 3H) | b (3H) | W_head (H x O) | b_head (O) ]
// Gate order inside the 3H dimension: update (z), reset (r), candidate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {

class Workspace;

class GruRegressor {
 public:
  GruRegressor(std::size_t feature_dim, std::size_t hidden_dim,
               std::size_t output_dim, util::Rng& rng);

  [[nodiscard]] std::size_t feature_dim() const noexcept { return f_; }
  [[nodiscard]] std::size_t hidden_dim() const noexcept { return h_; }
  [[nodiscard]] std::size_t output_dim() const noexcept { return o_; }
  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return params_.size();
  }
  [[nodiscard]] std::span<double> parameters() noexcept { return params_; }
  [[nodiscard]] std::span<const double> parameters() const noexcept {
    return params_;
  }
  void set_parameters(std::span<const double> values);

  /// Inference over a sequence (xs[t]: batch x F); allocates a scratch
  /// workspace per call.
  [[nodiscard]] Matrix predict(const std::vector<Matrix>& xs) const;
  /// Allocation-free inference via workspace step scratch; the returned
  /// reference points into `ws`.
  const Matrix& predict(const std::vector<Matrix>& xs, Workspace& ws) const;

 private:
  /// One recurrent step into caller-provided scratch (outputs reshaped in
  /// place, fully overwritten) through nn::gru_step_slice, the step
  /// gru_train_step trains with; `coeff` is kernels::kRowBlock x H
  /// (r ⊙ h) scratch.
  void step_compute(const Matrix& x, const Matrix& h_prev, Matrix& gates,
                    Matrix& h, Matrix& coeff) const;
  /// Dense head: out = h_last * W_head + b_head (out reshaped in place).
  void head_into(const Matrix& h_last, Matrix& out) const;

  std::size_t f_, h_, o_;
  std::vector<double> params_;
};

}  // namespace pfdrl::nn
