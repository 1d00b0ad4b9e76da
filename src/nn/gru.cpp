#include "nn/gru.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "nn/fused.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/workspace.hpp"

namespace pfdrl::nn {

GruRegressor::GruRegressor(std::size_t feature_dim, std::size_t hidden_dim,
                           std::size_t output_dim, util::Rng& rng)
    : f_(feature_dim), h_(hidden_dim), o_(output_dim) {
  if (f_ == 0 || h_ == 0 || o_ == 0) {
    throw std::invalid_argument("GruRegressor: zero dimension");
  }
  const std::size_t total = f_ * 3 * h_ + h_ * 3 * h_ + 3 * h_ + h_ * o_ + o_;
  params_.assign(total, 0.0);
  {
    Matrix m(f_, 3 * h_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(), params_.begin());
  }
  {
    Matrix m(h_, 3 * h_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(),
              params_.begin() + static_cast<std::ptrdiff_t>(f_ * 3 * h_));
  }
  {
    Matrix m(h_, o_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(),
              params_.begin() +
                  static_cast<std::ptrdiff_t>(f_ * 3 * h_ + h_ * 3 * h_ +
                                              3 * h_));
  }
}

void GruRegressor::set_parameters(std::span<const double> values) {
  if (values.size() != params_.size()) {
    throw std::invalid_argument("GruRegressor::set_parameters: size mismatch");
  }
  std::copy(values.begin(), values.end(), params_.begin());
}

void GruRegressor::step_compute(const Matrix& x, const Matrix& h_prev,
                                Matrix& gates, Matrix& h,
                                Matrix& coeff) const {
  const std::size_t batch = x.rows();
  assert(x.cols() == f_);
  gates.reshape(batch, 3 * h_);
  h.reshape(batch, h_);

  const double* wx = params_.data();
  const double* wh = wx + f_ * 3 * h_;
  gru_step_slice(wx, wh, wh + h_ * 3 * h_, f_, h_, x, 0, h_prev, gates, h,
                 coeff, 0, FusedSlice{0, batch});
}

void GruRegressor::head_into(const Matrix& h_last, Matrix& out) const {
  const std::size_t batch = h_last.rows();
  out.reshape(batch, o_);
  const double* w = params_.data() + f_ * 3 * h_ + h_ * 3 * h_ + 3 * h_;
  dense_forward_slice({w, h_ * o_ + o_}, h_, o_, h_last, 0, out,
                      FusedSlice{0, batch});
}

Matrix GruRegressor::predict(const std::vector<Matrix>& xs) const {
  Workspace ws;
  return predict(xs, ws);
}

const Matrix& GruRegressor::predict(const std::vector<Matrix>& xs,
                                    Workspace& ws) const {
  if (xs.empty()) throw std::invalid_argument("GruRegressor: empty sequence");
  const std::size_t batch = xs.front().rows();
  Matrix& gates = ws.take(batch, 3 * h_);
  Matrix* h_prev = &ws.take(batch, h_);
  Matrix* h_next = &ws.take(batch, h_);
  Matrix& out = ws.take(batch, o_);
  Matrix& coeff = ws.take(kernels::kRowBlock, h_);
  h_prev->zero();
  for (const Matrix& x : xs) {
    assert(x.rows() == batch);
    step_compute(x, *h_prev, gates, *h_next, coeff);
    std::swap(h_prev, h_next);
  }
  head_into(*h_prev, out);
  return out;
}

}  // namespace pfdrl::nn
