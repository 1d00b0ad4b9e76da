#include "nn/lstm.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/fused.hpp"
#include "nn/init.hpp"
#include "nn/workspace.hpp"

namespace pfdrl::nn {

LstmRegressor::LstmRegressor(std::size_t feature_dim, std::size_t hidden_dim,
                             std::size_t output_dim, util::Rng& rng)
    : f_(feature_dim), h_(hidden_dim), o_(output_dim) {
  if (f_ == 0 || h_ == 0 || o_ == 0) {
    throw std::invalid_argument("LstmRegressor: zero dimension");
  }
  const std::size_t total =
      f_ * 4 * h_ + h_ * 4 * h_ + 4 * h_ + h_ * o_ + o_;
  params_.assign(total, 0.0);

  // Xavier init for the recurrent blocks, He for the head; forget-gate
  // bias starts at 1.0 (standard trick: remember by default).
  {
    Matrix m(f_, 4 * h_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(), wx().begin());
  }
  {
    Matrix m(h_, 4 * h_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(), wh().begin());
  }
  for (std::size_t j = h_; j < 2 * h_; ++j) bias()[j] = 1.0;
  {
    Matrix m(h_, o_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(), w_head().begin());
  }
}

std::span<double> LstmRegressor::wx() noexcept {
  return std::span(params_).subspan(0, f_ * 4 * h_);
}
std::span<double> LstmRegressor::wh() noexcept {
  return std::span(params_).subspan(f_ * 4 * h_, h_ * 4 * h_);
}
std::span<double> LstmRegressor::bias() noexcept {
  return std::span(params_).subspan(f_ * 4 * h_ + h_ * 4 * h_, 4 * h_);
}
std::span<double> LstmRegressor::w_head() noexcept {
  return std::span(params_).subspan(f_ * 4 * h_ + h_ * 4 * h_ + 4 * h_,
                                    h_ * o_);
}
std::span<const double> LstmRegressor::wx() const noexcept {
  return std::span(params_).subspan(0, f_ * 4 * h_);
}
std::span<const double> LstmRegressor::wh() const noexcept {
  return std::span(params_).subspan(f_ * 4 * h_, h_ * 4 * h_);
}
std::span<const double> LstmRegressor::bias() const noexcept {
  return std::span(params_).subspan(f_ * 4 * h_ + h_ * 4 * h_, 4 * h_);
}
std::span<const double> LstmRegressor::w_head() const noexcept {
  return std::span(params_).subspan(f_ * 4 * h_ + h_ * 4 * h_ + 4 * h_,
                                    h_ * o_);
}

void LstmRegressor::set_parameters(std::span<const double> values) {
  if (values.size() != params_.size()) {
    throw std::invalid_argument("LstmRegressor::set_parameters: size mismatch");
  }
  std::copy(values.begin(), values.end(), params_.begin());
}

void LstmRegressor::step_compute(const Matrix& x, const Matrix& h_prev,
                                 const Matrix& c_prev, Matrix& gates,
                                 Matrix& c, Matrix& tanh_c, Matrix& h) const {
  const std::size_t batch = x.rows();
  assert(x.cols() == f_);
  gates.reshape(batch, 4 * h_);
  c.reshape(batch, h_);
  tanh_c.reshape(batch, h_);
  h.reshape(batch, h_);

  lstm_step_slice(wx().data(), wh().data(), bias().data(), f_, h_, x, 0,
                  h_prev, c_prev, gates, c, tanh_c, h, FusedSlice{0, batch});
}

void LstmRegressor::head_into(const Matrix& h_last, Matrix& out) const {
  const std::size_t batch = h_last.rows();
  out.reshape(batch, o_);
  dense_forward_slice({w_head().data(), h_ * o_ + o_}, h_, o_, h_last, 0, out,
                      FusedSlice{0, batch});
}

Matrix LstmRegressor::predict(const std::vector<Matrix>& xs) const {
  Workspace ws;
  return predict(xs, ws);
}

const Matrix& LstmRegressor::predict(const std::vector<Matrix>& xs,
                                     Workspace& ws) const {
  if (xs.empty()) throw std::invalid_argument("LstmRegressor: empty sequence");
  const std::size_t batch = xs.front().rows();
  Matrix& gates = ws.take(batch, 4 * h_);
  Matrix& tanh_c = ws.take(batch, h_);
  Matrix* h_prev = &ws.take(batch, h_);
  Matrix* h_next = &ws.take(batch, h_);
  Matrix* c_prev = &ws.take(batch, h_);
  Matrix* c_next = &ws.take(batch, h_);
  Matrix& out = ws.take(batch, o_);
  h_prev->zero();
  c_prev->zero();
  for (const Matrix& x : xs) {
    assert(x.rows() == batch);
    step_compute(x, *h_prev, *c_prev, gates, *c_next, tanh_c, *h_next);
    std::swap(h_prev, h_next);
    std::swap(c_prev, c_next);
  }
  head_into(*h_prev, out);
  return out;
}

}  // namespace pfdrl::nn
