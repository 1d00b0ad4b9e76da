#include "nn/lstm.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/fused.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
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
std::span<double> LstmRegressor::b_head() noexcept {
  return std::span(params_).subspan(
      f_ * 4 * h_ + h_ * 4 * h_ + 4 * h_ + h_ * o_, o_);
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
std::span<const double> LstmRegressor::b_head() const noexcept {
  return std::span(params_).subspan(
      f_ * 4 * h_ + h_ * 4 * h_ + 4 * h_ + h_ * o_, o_);
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

const Matrix& LstmRegressor::forward(const std::vector<Matrix>& xs) {
  if (xs.empty()) throw std::invalid_argument("LstmRegressor: empty sequence");
  const std::size_t batch = xs.front().rows();
  // resize (not clear+resize): surviving StepCaches keep their buffers,
  // so repeat batches of the same shape allocate nothing.
  steps_.resize(xs.size());
  h0_.reshape(batch, h_);
  h0_.zero();
  c0_.reshape(batch, h_);
  c0_.zero();
  for (std::size_t t = 0; t < xs.size(); ++t) {
    assert(xs[t].rows() == batch);
    const Matrix& h_prev = t > 0 ? steps_[t - 1].h : h0_;
    const Matrix& c_prev = t > 0 ? steps_[t - 1].c : c0_;
    StepCache& cache = steps_[t];
    cache.x = &xs[t];
    step_compute(xs[t], h_prev, c_prev, cache.gates, cache.c, cache.tanh_c,
                 cache.h);
  }
  head_into(steps_.back().h, output_);
  return output_;
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

void LstmRegressor::backward(const Matrix& grad_out, std::span<double> grads) {
  assert(grads.size() == params_.size());
  const std::size_t batch = grad_out.rows();
  const std::size_t T = steps_.size();
  assert(grad_out.cols() == o_);

  const std::size_t wx_off = 0;
  const std::size_t wh_off = f_ * 4 * h_;
  const std::size_t b_off = wh_off + h_ * 4 * h_;
  const std::size_t whead_off = b_off + 4 * h_;
  const std::size_t bhead_off = whead_off + h_ * o_;

  Matrix& dh = dh_;
  Matrix& dc = dc_;
  dh.reshape(batch, h_);  // fully written by the head backward below
  dc.reshape(batch, h_);
  dc.zero();

  // Head backward: dL/dh_T = grad_out * W_head^T; head grads.
  {
    const double* w = w_head().data();
    for (std::size_t r = 0; r < batch; ++r) {
      const double* go = grad_out.row(r).data();
      const double* hr = steps_.back().h.row(r).data();
      double* dhr = dh.row(r).data();
      for (std::size_t j = 0; j < o_; ++j) grads[bhead_off + j] += go[j];
      kernels::outer_acc(hr, h_, go, o_, grads.data() + whead_off);
      for (std::size_t k = 0; k < h_; ++k) {
        dhr[k] = kernels::dot(go, w + k * o_, o_);
      }
    }
  }

  Matrix& dz = dz_;
  dz.reshape(batch, 4 * h_);  // fully written per step
  const double* pwh = wh().data();
  for (std::size_t t = T; t-- > 0;) {
    const StepCache& st = steps_[t];
    const Matrix* c_prev = t > 0 ? &steps_[t - 1].c : nullptr;
    const Matrix* h_prev = t > 0 ? &steps_[t - 1].h : nullptr;

    for (std::size_t r = 0; r < batch; ++r) {
      const double* gates = st.gates.row(r).data();
      const double* tc = st.tanh_c.row(r).data();
      double* dhr = dh.row(r).data();
      double* dcr = dc.row(r).data();
      double* dzr = dz.row(r).data();
      for (std::size_t j = 0; j < h_; ++j) {
        const double i_g = gates[j];
        const double f_g = gates[h_ + j];
        const double g_g = gates[2 * h_ + j];
        const double o_g = gates[3 * h_ + j];
        const double cp = c_prev ? (*c_prev)(r, j) : 0.0;

        const double do_g = dhr[j] * tc[j];
        dcr[j] += dhr[j] * o_g * (1.0 - tc[j] * tc[j]);
        const double di = dcr[j] * g_g;
        const double df = dcr[j] * cp;
        const double dg = dcr[j] * i_g;

        dzr[j] = di * i_g * (1.0 - i_g);
        dzr[h_ + j] = df * f_g * (1.0 - f_g);
        dzr[2 * h_ + j] = dg * (1.0 - g_g * g_g);
        dzr[3 * h_ + j] = do_g * o_g * (1.0 - o_g);

        // dc propagates to the previous step through the forget gate.
        dcr[j] *= f_g;
      }
    }

    // Accumulate parameter gradients and compute dh_{t-1}.
    for (std::size_t r = 0; r < batch; ++r) {
      const double* dzr = dz.row(r).data();
      const double* xr = st.x->row(r).data();
      for (std::size_t j = 0; j < 4 * h_; ++j) grads[b_off + j] += dzr[j];
      kernels::outer_acc(xr, f_, dzr, 4 * h_, grads.data() + wx_off);
      // At t == 0 there is no h_{-1}: no recurrent gradient, and dh_{-1}
      // would be read by nothing.
      if (h_prev == nullptr) continue;
      const double* hp = h_prev->row(r).data();
      kernels::outer_acc(hp, h_, dzr, 4 * h_, grads.data() + wh_off);
      // dh_{t-1} = dz * Wh^T.
      double* dhr = dh.row(r).data();
      for (std::size_t k = 0; k < h_; ++k) {
        dhr[k] = kernels::dot(dzr, pwh + k * 4 * h_, 4 * h_);
      }
    }
  }
}

double LstmRegressor::train_batch(const std::vector<Matrix>& xs,
                                  const Matrix& y, LossKind loss,
                                  Optimizer& opt, double clip_norm) {
  const Matrix& pred = forward(xs);
  const double value = loss_value(loss, pred, y);
  loss_grad(loss, pred, y, grad_out_scratch_);

  // assign() reuses the arena's capacity after the first batch — the
  // steady-state train loop performs no gradient-buffer allocation.
  grads_scratch_.assign(params_.size(), 0.0);
  std::vector<double>& grads = grads_scratch_;
  backward(grad_out_scratch_, grads);

  if (clip_norm > 0.0) {
    const double sq = kernels::dot(grads.data(), grads.data(), grads.size());
    const double norm = std::sqrt(sq);
    if (norm > clip_norm) {
      const double scale = clip_norm / norm;
      for (double& g : grads) g *= scale;
    }
  }
  opt.step(params_, grads);
  kernels::note_train_batch();
  return value;
}

}  // namespace pfdrl::nn
