// Single-layer LSTM regressor with a dense head. Used by the LSTM load
// forecaster (the paper's best-performing prediction model). The class
// owns the parameters and runs inference; training (BPTT, clip and the
// optimizer step) runs through nn::FusedLstm, a lone regressor being a
// group of one (nn/fused.hpp).
//
// All parameters live in one flat buffer so the model can participate in
// federated averaging exactly like the MLP:
//   [ Wx (F x 4H) | Wh (H x 4H) | b (4H) | W_head (H x O) | b_head (O) ]
// Gate order inside the 4H dimension: input, forget, candidate, output.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
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

  /// Inference over a sequence: xs[t] is the batch-by-F input at step t;
  /// all steps share the batch size. Returns batch-by-O output.
  /// Allocates a scratch workspace per call.
  [[nodiscard]] Matrix predict(const std::vector<Matrix>& xs) const;
  /// Allocation-free inference: gate/cell/hidden step scratch lives in
  /// workspace slots that steady-state calls reuse without growth. The
  /// returned reference points into `ws`.
  const Matrix& predict(const std::vector<Matrix>& xs, Workspace& ws) const;

 private:
  // Parameter slice accessors (const versions mirror).
  [[nodiscard]] std::span<double> wx() noexcept;
  [[nodiscard]] std::span<double> wh() noexcept;
  [[nodiscard]] std::span<double> bias() noexcept;
  [[nodiscard]] std::span<double> w_head() noexcept;
  [[nodiscard]] std::span<const double> wx() const noexcept;
  [[nodiscard]] std::span<const double> wh() const noexcept;
  [[nodiscard]] std::span<const double> bias() const noexcept;
  [[nodiscard]] std::span<const double> w_head() const noexcept;

  /// One recurrent step into caller-provided scratch (all outputs are
  /// reshaped in place and fully overwritten) through nn::lstm_step_slice,
  /// the step FusedLstm trains with.
  void step_compute(const Matrix& x, const Matrix& h_prev,
                    const Matrix& c_prev, Matrix& gates, Matrix& c,
                    Matrix& tanh_c, Matrix& h) const;
  /// Dense head: out = h_last * W_head + b_head (out reshaped in place).
  void head_into(const Matrix& h_last, Matrix& out) const;

  std::size_t f_, h_, o_;
  std::vector<double> params_;
};

}  // namespace pfdrl::nn
