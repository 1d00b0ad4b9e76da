// Single-layer LSTM regressor with a dense head, trained by full
// backpropagation through time. Used by the LSTM load forecaster (the
// paper's best-performing prediction model).
//
// All parameters live in one flat buffer so the model can participate in
// federated averaging exactly like the MLP:
//   [ Wx (F x 4H) | Wh (H x 4H) | b (4H) | W_head (H x O) | b_head (O) ]
// Gate order inside the 4H dimension: input, forget, candidate, output.
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

class LstmRegressor {
 public:
  /// feature_dim F, hidden_dim H, output_dim O (usually 1).
  LstmRegressor(std::size_t feature_dim, std::size_t hidden_dim,
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

  /// Forward over a sequence: xs[t] is the batch-by-F input at step t.
  /// All steps must share the same batch size. Returns batch-by-O output
  /// and caches activations for backward(). The step inputs are held by
  /// reference: `xs` must outlive the matching backward().
  const Matrix& forward(const std::vector<Matrix>& xs);
  /// Stateless inference (allocates a scratch workspace per call).
  [[nodiscard]] Matrix predict(const std::vector<Matrix>& xs) const;
  /// Allocation-free inference: gate/cell/hidden step scratch lives in
  /// workspace slots that steady-state calls reuse without growth. The
  /// returned reference points into `ws`.
  const Matrix& predict(const std::vector<Matrix>& xs, Workspace& ws) const;

  /// Forward + loss + BPTT + optimizer step. Gradients are L2-clipped at
  /// `clip_norm` (0 disables clipping). Returns batch loss.
  double train_batch(const std::vector<Matrix>& xs, const Matrix& y,
                     LossKind loss, Optimizer& opt, double clip_norm = 5.0);

 private:
  struct StepCache {
    const Matrix* x = nullptr;  // B x F step input (view into caller's xs)
    Matrix gates;   // B x 4H, post-nonlinearity (i, f, g, o)
    Matrix c;       // B x H cell state after the step
    Matrix tanh_c;  // B x H
    Matrix h;       // B x H hidden after the step
  };

  // Parameter slice accessors (const versions mirror).
  [[nodiscard]] std::span<double> wx() noexcept;
  [[nodiscard]] std::span<double> wh() noexcept;
  [[nodiscard]] std::span<double> bias() noexcept;
  [[nodiscard]] std::span<double> w_head() noexcept;
  [[nodiscard]] std::span<double> b_head() noexcept;
  [[nodiscard]] std::span<const double> wx() const noexcept;
  [[nodiscard]] std::span<const double> wh() const noexcept;
  [[nodiscard]] std::span<const double> bias() const noexcept;
  [[nodiscard]] std::span<const double> w_head() const noexcept;
  [[nodiscard]] std::span<const double> b_head() const noexcept;

  /// One recurrent step into caller-provided scratch (all outputs are
  /// reshaped in place and fully overwritten) through nn::lstm_step_slice.
  /// Shared by the training forward (cache matrices) and the workspace
  /// predict (arena slots).
  void step_compute(const Matrix& x, const Matrix& h_prev,
                    const Matrix& c_prev, Matrix& gates, Matrix& c,
                    Matrix& tanh_c, Matrix& h) const;
  /// Dense head: out = h_last * W_head + b_head (out reshaped in place).
  void head_into(const Matrix& h_last, Matrix& out) const;
  void backward(const Matrix& grad_out, std::span<double> grads);

  std::size_t f_, h_, o_;
  std::vector<double> params_;
  // Training caches. steps_ is resized (not cleared) per forward so the
  // per-step scratch keeps its heap buffers across batches; h0_/c0_ are
  // the zeroed initial states the first step reads.
  std::vector<StepCache> steps_;
  Matrix h0_, c0_;
  Matrix output_;
  // Persistent training scratch: the gradient arena and the BPTT
  // deltas are assigned/reshaped in place each train_batch, so
  // steady-state batches of a stable shape perform no heap allocation.
  std::vector<double> grads_scratch_;
  Matrix grad_out_scratch_;
  Matrix dh_, dc_, dz_;
};

}  // namespace pfdrl::nn
