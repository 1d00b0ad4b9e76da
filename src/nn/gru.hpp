// Single-layer GRU regressor with a dense head — the lighter recurrent
// alternative to the LSTM (extension beyond the paper; compared in
// bench/ablation_design). Same flat-parameter contract as the LSTM so it
// can participate in federated averaging:
//   [ Wx (F x 3H) | Wh (H x 3H) | b (3H) | W_head (H x O) | b_head (O) ]
// Gate order inside the 3H dimension: update (z), reset (r), candidate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
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

  /// Forward over a sequence (xs[t]: batch x F); caches for backward.
  /// The step inputs are held by reference: `xs` must outlive the
  /// matching backward().
  const Matrix& forward(const std::vector<Matrix>& xs);
  /// Stateless inference (allocates a scratch workspace per call).
  [[nodiscard]] Matrix predict(const std::vector<Matrix>& xs) const;
  /// Allocation-free inference via workspace step scratch; the returned
  /// reference points into `ws`.
  const Matrix& predict(const std::vector<Matrix>& xs, Workspace& ws) const;

  /// Forward + loss + BPTT + optimizer step; returns batch loss.
  double train_batch(const std::vector<Matrix>& xs, const Matrix& y,
                     LossKind loss, Optimizer& opt, double clip_norm = 5.0);

 private:
  struct StepCache {
    const Matrix* x = nullptr;       // B x F step input (view into xs)
    Matrix gates;                    // B x 3H post-nonlinearity (z, r, cand)
    const Matrix* h_prev = nullptr;  // B x H hidden entering the step
    Matrix h;                        // B x H hidden after the step
  };

  /// One recurrent step into caller-provided scratch (outputs reshaped in
  /// place, fully overwritten) through nn::gru_step_slice; `coeff` is
  /// kernels::kRowBlock x H (r ⊙ h) scratch. Shared by forward() and the
  /// workspace predict.
  void step_compute(const Matrix& x, const Matrix& h_prev, Matrix& gates,
                    Matrix& h, Matrix& coeff) const;
  /// Dense head: out = h_last * W_head + b_head (out reshaped in place).
  void head_into(const Matrix& h_last, Matrix& out) const;
  void backward(const Matrix& grad_out, std::span<double> grads);

  std::size_t f_, h_, o_;
  std::vector<double> params_;
  // steps_ is resized (not cleared) per forward so step scratch keeps its
  // buffers; h0_ is the zeroed initial hidden the first step points at.
  std::vector<StepCache> steps_;
  Matrix h0_;
  Matrix coeff_;  // (r ⊙ h) row-block scratch of forward()
  Matrix output_;
  // Persistent training scratch (see LstmRegressor): reused in place each
  // train_batch so steady-state batches allocate nothing.
  std::vector<double> grads_scratch_;
  Matrix grad_out_scratch_;
  Matrix dh_, dz_;
};

}  // namespace pfdrl::nn
