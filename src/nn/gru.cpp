#include "nn/gru.hpp"

#include <cassert>
#include <cmath>
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

const Matrix& GruRegressor::forward(const std::vector<Matrix>& xs) {
  if (xs.empty()) throw std::invalid_argument("GruRegressor: empty sequence");
  const std::size_t batch = xs.front().rows();
  // resize (not clear+resize): surviving StepCaches keep their buffers.
  steps_.resize(xs.size());
  h0_.reshape(batch, h_);
  h0_.zero();
  coeff_.reshape(kernels::kRowBlock, h_);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    assert(xs[t].rows() == batch);
    StepCache& cache = steps_[t];
    cache.x = &xs[t];
    cache.h_prev = t > 0 ? &steps_[t - 1].h : &h0_;
    step_compute(xs[t], *cache.h_prev, cache.gates, cache.h, coeff_);
  }
  head_into(steps_.back().h, output_);
  return output_;
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

void GruRegressor::backward(const Matrix& grad_out, std::span<double> grads) {
  assert(grads.size() == params_.size());
  const std::size_t batch = grad_out.rows();
  const std::size_t T = steps_.size();

  const std::size_t wx_off = 0;
  const std::size_t wh_off = f_ * 3 * h_;
  const std::size_t b_off = wh_off + h_ * 3 * h_;
  const std::size_t whead_off = b_off + 3 * h_;
  const std::size_t bhead_off = whead_off + h_ * o_;

  Matrix& dh = dh_;
  dh.reshape(batch, h_);  // fully written by the head backward below

  // Head backward.
  {
    const double* w = params_.data() + whead_off;
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
  dz.reshape(batch, 3 * h_);  // fully written per step
  const double* wh = params_.data() + wh_off;
  for (std::size_t t = T; t-- > 0;) {
    const StepCache& st = steps_[t];
    for (std::size_t r = 0; r < batch; ++r) {
      const double* g = st.gates.row(r).data();
      const double* hp = st.h_prev->row(r).data();
      double* dhr = dh.row(r).data();
      double* dzr = dz.row(r).data();
      for (std::size_t j = 0; j < h_; ++j) {
        const double zg = g[j];
        const double rg = g[h_ + j];
        const double cand = g[2 * h_ + j];
        const double dht = dhr[j];

        const double dzg = dht * (cand - hp[j]);
        const double dcand = dht * zg;
        // dh_prev direct term (1 - z); gate paths added below.
        dhr[j] = dht * (1.0 - zg);

        const double dcand_pre = dcand * (1.0 - cand * cand);
        dzr[2 * h_ + j] = dcand_pre;
        dzr[j] = dzg * zg * (1.0 - zg);
        // dr needs the candidate pre-activation path: handled after we
        // know dcand_pre for all j (requires Whh row sums per k below).
        dzr[h_ + j] = 0.0;  // filled next loop
      }
      // Candidate recurrent path: d(r ⊙ h)_k = sum_j dcand_pre_j Whh[k][j].
      for (std::size_t k = 0; k < h_; ++k) {
        const double s =
            kernels::dot(dzr + 2 * h_, wh + k * 3 * h_ + 2 * h_, h_);
        const double rk = g[h_ + k];
        // through r: dr_k = s * h_prev_k; through h_prev: += s * r_k.
        dzr[h_ + k] = s * hp[k] * rk * (1.0 - rk);
        if (t > 0) dhr[k] += s * rk;
      }
      // z and r recurrent paths into dh_prev (none at t == 0: dh_{-1}
      // would be read by nothing).
      for (std::size_t k = 0; t > 0 && k < h_; ++k) {
        dhr[k] += kernels::dot(dzr, wh + k * 3 * h_, 2 * h_);
      }
      // Parameter gradients.
      const double* xr = st.x->row(r).data();
      for (std::size_t j = 0; j < 3 * h_; ++j) grads[b_off + j] += dzr[j];
      kernels::outer_acc(xr, f_, dzr, 3 * h_, grads.data() + wx_off);
      for (std::size_t k = 0; k < h_; ++k) {
        double* gp = grads.data() + wh_off + k * 3 * h_;
        kernels::axpy(hp[k], dzr, gp, 2 * h_);
        const double rh = st.gates(r, h_ + k) * hp[k];  // (r ⊙ h)_k
        kernels::axpy(rh, dzr + 2 * h_, gp + 2 * h_, h_);
      }
    }
  }
}

double GruRegressor::train_batch(const std::vector<Matrix>& xs,
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
