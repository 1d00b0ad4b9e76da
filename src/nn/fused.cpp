#include "nn/fused.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/gru.hpp"
#include "nn/kernels.hpp"
#include "nn/lstm.hpp"
#include "nn/mlp.hpp"

namespace pfdrl::nn {

namespace {

constexpr std::size_t kRB = kernels::kRowBlock;

/// Row pointers of a block of kRB consecutive rows.
template <class M>
void block_rows(M& m, std::size_t r, double* out[kRB]) noexcept {
  for (std::size_t i = 0; i < kRB; ++i) out[i] = m.row(r + i).data();
}
template <class M>
void block_rows_const(const M& m, std::size_t r,
                      const double* out[kRB]) noexcept {
  for (std::size_t i = 0; i < kRB; ++i) out[i] = m.row(r + i).data();
}

/// Head backward over a member's rows: bias/outer accumulation into the
/// member's head gradients and dh[r][k] = dot(grad_out[r], W_head row k),
/// on the slab kernels (bitwise their per-row sequence, see kernels.hpp).
void head_backward(const double* w, std::size_t h, std::size_t o,
                   const Matrix& grad_out, const Matrix& h_last, Matrix& dh,
                   double* gw_head, double* gb_head, std::size_t rows) {
  const double* go = grad_out.row(0).data();
  kernels::slab_outer_acc(h_last.row(0).data(), h, h, go, o, o, rows, gw_head,
                          o, gb_head);
  kernels::slab_dot(go, o, o, rows, w, o, h, dh.row(0).data(), h);
}

/// The member step's gradient span: n zeroed doubles of its scratch.
std::span<double> take_gradients(Workspace& ws, std::size_t n) {
  const std::span<double> g = ws.take_span(n);
  std::fill(g.begin(), g.end(), 0.0);
  return g;
}

/// Global-norm clip of the member's gradients (when clip_norm > 0), then
/// its optimizer step.
void clip_and_step(std::span<double> g, double clip_norm, Optimizer& opt,
                   std::span<double> params) {
  if (clip_norm > 0.0) {
    const double norm = std::sqrt(kernels::dot(g.data(), g.data(), g.size()));
    if (norm > clip_norm) {
      const double scale = clip_norm / norm;
      for (double& gv : g) gv *= scale;
    }
  }
  opt.step(params, g);
}

// ---------------------------------------------------------------- LSTM --

struct LstmOffsets {
  std::size_t wx, wh, b, w_head, b_head, total;
};

LstmOffsets lstm_offsets(std::size_t f, std::size_t h, std::size_t o) {
  LstmOffsets ofs{};
  ofs.wx = 0;
  ofs.wh = f * 4 * h;
  ofs.b = ofs.wh + h * 4 * h;
  ofs.w_head = ofs.b + 4 * h;
  ofs.b_head = ofs.w_head + h * o;
  ofs.total = ofs.b_head + o;
  return ofs;
}

/// LSTM backward Phase-1 elementwise deltas for one row: back through
/// h = o * tanh(c) into dc, then the gate preactivation deltas (sigmoid
/// and tanh derivatives from the cached gate outputs), then dc carried
/// to step t-1 through the forget gate. kHasCPrev lifts the t == 0 check
/// out of the loop: the body is branch-free either way (cp folds to 0.0
/// at t == 0, keeping the signed-zero products), so the compiler can
/// vectorize the j loop.
template <bool kHasCPrev>
void lstm_phase1_row(const double* __restrict zg, const double* __restrict tc,
                     const double* __restrict cpr, double* __restrict dhr,
                     double* __restrict dcr, double* __restrict dzr,
                     std::size_t h) {
  for (std::size_t j = 0; j < h; ++j) {
    const double i_g = zg[j];
    const double f_g = zg[h + j];
    const double g_g = zg[2 * h + j];
    const double o_g = zg[3 * h + j];
    const double cp = kHasCPrev ? cpr[j] : 0.0;

    const double do_g = dhr[j] * tc[j];
    dcr[j] += dhr[j] * o_g * (1.0 - tc[j] * tc[j]);
    const double di = dcr[j] * g_g;
    const double df = dcr[j] * cp;
    const double dg = dcr[j] * i_g;

    dzr[j] = di * i_g * (1.0 - i_g);
    dzr[h + j] = df * f_g * (1.0 - f_g);
    dzr[2 * h + j] = dg * (1.0 - g_g * g_g);
    dzr[3 * h + j] = do_g * o_g * (1.0 - o_g);

    dcr[j] *= f_g;
  }
}

// ----------------------------------------------------------------- GRU --

struct GruOffsets {
  std::size_t wx, wh, b, w_head, b_head, total;
};

GruOffsets gru_offsets(std::size_t f, std::size_t h, std::size_t o) {
  GruOffsets ofs{};
  ofs.wx = 0;
  ofs.wh = f * 3 * h;
  ofs.b = ofs.wh + h * 3 * h;
  ofs.w_head = ofs.b + 3 * h;
  ofs.b_head = ofs.w_head + h * o;
  ofs.total = ofs.b_head + o;
  return ofs;
}

// ----------------------------------------------------------------- MLP --

/// Dense backward over a member's rows on the slab kernels: bias/weight
/// gradients into the member's gradient slice, dL/dx rows into grad_x.
/// `grad_y` must already hold the pre-activation delta.
void dense_backward(std::span<const double> params, std::size_t in,
                    std::size_t out, const Matrix& x, const Matrix& grad_y,
                    std::span<double> grad_params, Matrix* grad_x,
                    std::size_t rows) {
  const double* dy = grad_y.row(0).data();
  kernels::slab_outer_acc(x.row(0).data(), x.cols(), in, dy, out, out,
                          rows, grad_params.data(), out,
                          grad_params.data() + in * out);
  if (grad_x != nullptr) {
    kernels::slab_dot(dy, out, out, rows, params.data(), out, in,
                      grad_x->row(0).data(), grad_x->cols());
  }
}

}  // namespace

// ------------------------------------------------- per-layer step functions --

// One LSTM step over rows [0, rows): blocked gate preactivation, then
// the per-row nonlinearity/state-update sequence.
void lstm_step_slice(const double* pwx, const double* pwh, const double* pb,
                     std::size_t f, std::size_t h, const Matrix& x,
                     const Matrix& h_prev, const Matrix& c_prev,
                     Matrix& gates, Matrix& c, Matrix& tanh_c, Matrix& hm,
                     std::size_t rows) {
  const std::size_t g4 = 4 * h;
  std::size_t r = 0;
  for (; r + kRB <= rows; r += kRB) {
    double* zr[kRB];
    const double* xr[kRB];
    const double* hr[kRB];
    block_rows(gates, r, zr);
    block_rows_const(x, r, xr);
    block_rows_const(h_prev, r, hr);
    kernels::fused_gates_rows(pb, xr, f, pwx, hr, h, pwh, g4, zr, g4);
  }
  for (; r < rows; ++r) {
    double* z = gates.row(r).data();
    for (std::size_t j = 0; j < g4; ++j) z[j] = pb[j];
    const double* xr = x.row(r).data();
    for (std::size_t k = 0; k < f; ++k) {
      kernels::axpy(xr[k], pwx + k * g4, z, g4);
    }
    const double* hr = h_prev.row(r).data();
    for (std::size_t k = 0; k < h; ++k) {
      kernels::axpy(hr[k], pwh + k * g4, z, g4);
    }
  }
  for (r = 0; r < rows; ++r) {
    double* z = gates.row(r).data();
    kernels::sigmoid_inplace(z, 2 * h);
    kernels::tanh_inplace(z + 2 * h, h);
    kernels::sigmoid_inplace(z + 3 * h, h);
    const double* cprev = c_prev.row(r).data();
    double* cr = c.row(r).data();
    double* tc = tanh_c.row(r).data();
    double* hv = hm.row(r).data();
    for (std::size_t j = 0; j < h; ++j) {
      cr[j] = z[h + j] * cprev[j] + z[j] * z[2 * h + j];
      tc[j] = cr[j];
    }
    kernels::tanh_inplace(tc, h);
    for (std::size_t j = 0; j < h; ++j) hv[j] = z[3 * h + j] * tc[j];
  }
}

// One GRU step over rows [0, rows). The bias fill + input matrix ride
// the specialized fused_gates_rows register tile (its generic fallback is
// literally that bias-fill + fused_acc_rows sequence, so the swap is
// bitwise free); the recurrent matrix cannot join the same call because
// it only feeds the z/r gate columns until (r ⊙ h) is known.
void gru_step_slice(const double* pwx, const double* pwh, const double* pb,
                    std::size_t f, std::size_t h, const Matrix& x,
                    const Matrix& h_prev, Matrix& gates, Matrix& hm,
                    Matrix& coeff, std::size_t rows) {
  const std::size_t g3 = 3 * h;
  std::size_t r = 0;
  for (; r + kRB <= rows; r += kRB) {
    double* zr[kRB];
    const double* xr[kRB];
    const double* hp[kRB];
    block_rows(gates, r, zr);
    block_rows_const(x, r, xr);
    block_rows_const(h_prev, r, hp);
    kernels::fused_gates_rows(pb, xr, f, pwx, nullptr, 0, nullptr, g3, zr,
                              g3);
    // z and r gates see h directly; candidate comes after r is known.
    kernels::fused_acc_rows(hp, h, pwh, g3, zr, 2 * h);
    for (std::size_t i = 0; i < kRB; ++i) {
      kernels::sigmoid_inplace(zr[i], 2 * h);
    }
    // Candidate pre-activation gets (r ⊙ h): the coefficient product is
    // the same single rounding the leftover-row axpy below computes
    // inline.
    double* cf[kRB];
    double* zc[kRB];
    const double* cf_const[kRB];
    for (std::size_t i = 0; i < kRB; ++i) {
      cf[i] = coeff.row(i).data();
      zc[i] = zr[i] + 2 * h;
      cf_const[i] = cf[i];
      for (std::size_t k = 0; k < h; ++k) cf[i][k] = zr[i][h + k] * hp[i][k];
    }
    kernels::fused_acc_rows(cf_const, h, pwh + 2 * h, g3, zc, h);
    for (std::size_t i = 0; i < kRB; ++i) {
      kernels::tanh_inplace(zc[i], h);
      double* hv = hm.row(r + i).data();
      for (std::size_t j = 0; j < h; ++j) {
        const double zg = zr[i][j];
        hv[j] = (1.0 - zg) * hp[i][j] + zg * zr[i][2 * h + j];
      }
    }
  }
  for (; r < rows; ++r) {
    double* z = gates.row(r).data();
    for (std::size_t j = 0; j < g3; ++j) z[j] = pb[j];
    const double* xr = x.row(r).data();
    for (std::size_t k = 0; k < f; ++k) {
      kernels::axpy(xr[k], pwx + k * g3, z, g3);
    }
    const double* hp = h_prev.row(r).data();
    for (std::size_t k = 0; k < h; ++k) {
      kernels::axpy(hp[k], pwh + k * g3, z, 2 * h);
    }
    kernels::sigmoid_inplace(z, 2 * h);
    for (std::size_t k = 0; k < h; ++k) {
      kernels::axpy(z[h + k] * hp[k], pwh + k * g3 + 2 * h, z + 2 * h, h);
    }
    kernels::tanh_inplace(z + 2 * h, h);
    double* hv = hm.row(r).data();
    for (std::size_t j = 0; j < h; ++j) {
      const double zg = z[j];
      hv[j] = (1.0 - zg) * hp[j] + zg * z[2 * h + j];
    }
  }
}

// Dense forward preactivation over rows [0, rows) (the activation
// applies to the whole output afterwards). Leftover rows go through
// matvec1, bitwise the tile's rows by the dense.hpp contract, so the row
// count never changes a row's result.
void dense_forward_slice(std::span<const double> params, std::size_t in,
                         std::size_t out, const Matrix& x, Matrix& y,
                         std::size_t rows) {
  const double* w = params.data();
  const double* b = params.data() + in * out;
  std::size_t r = 0;
  for (; r + kRB <= rows; r += kRB) {
    double* yr[kRB];
    const double* xr[kRB];
    block_rows(y, r, yr);
    block_rows_const(x, r, xr);
    kernels::fused_gates_rows(b, xr, in, w, nullptr, 0, nullptr, out, yr, out);
  }
  for (; r < rows; ++r) {
    matvec1(params.first(in * out), params.subspan(in * out, out), x.row(r),
            in, out, y.row(r));
  }
}

// note_fused_batch and the fused telemetry getters live in kernels.cpp
// next to the train-batch counter, so the sanitizer stress jobs (which
// rebuild kernels.cpp + metrics.cpp without this file) still link.

// ------------------------------------------------------------- LSTM step --

double lstm_train_step(LstmRegressor& net, std::span<const Matrix* const> xs,
                       const Matrix& y, LossKind loss, Optimizer& opt,
                       double clip_norm) {
  const std::size_t T = xs.size();
  const std::size_t n = y.rows();
  const std::size_t f = net.feature_dim();
  const std::size_t h = net.hidden_dim();
  const std::size_t o = net.output_dim();
  assert(T > 0 && y.cols() == o);
#ifndef NDEBUG
  for (const Matrix* x : xs) assert(x->rows() >= n && x->cols() == f);
#endif
  const LstmOffsets ofs = lstm_offsets(f, h, o);
  const double* p = net.parameters().data();

  // Forward, loss, BPTT, clip and Adam step over the member's own rows
  // against its own bank, with every intermediate and the gradient span
  // in the running thread's scratch. The step reads no other member's
  // state, so its bits do not depend on the thread or on the members
  // training beside it.
  Workspace& ws = thread_scratch();
  const std::size_t mark = ws.cursor();
  const std::span<double> gspan = take_gradients(ws, ofs.total);
  double* g = gspan.data();
  // Step t's gates, c, tanh(c) and h are slots first + 4t + 0..3.
  const std::size_t first = ws.cursor();
  for (std::size_t t = 0; t < T; ++t) {
    ws.take(n, 4 * h);
    for (int k = 0; k < 3; ++k) ws.take(n, h);
  }
  const auto gates = [&](std::size_t t) -> Matrix& {
    return ws.slot(first + 4 * t);
  };
  const auto cell = [&](std::size_t t) -> Matrix& {
    return ws.slot(first + 4 * t + 1);
  };
  const auto tanh_c = [&](std::size_t t) -> Matrix& {
    return ws.slot(first + 4 * t + 2);
  };
  const auto hid = [&](std::size_t t) -> Matrix& {
    return ws.slot(first + 4 * t + 3);
  };
  Matrix& h0 = ws.take(n, h);
  Matrix& c0 = ws.take(n, h);
  Matrix& pred = ws.take(n, o);
  Matrix& grad_out = ws.take(n, o);
  Matrix& dh = ws.take(n, h);
  Matrix& dc = ws.take(n, h);
  Matrix& dz = ws.take(n, 4 * h);
  h0.zero();
  c0.zero();
  dc.zero();

  // ---- Forward: all T steps. ----
  for (std::size_t t = 0; t < T; ++t) {
    const Matrix& hp = t > 0 ? hid(t - 1) : h0;
    const Matrix& cp = t > 0 ? cell(t - 1) : c0;
    lstm_step_slice(p + ofs.wx, p + ofs.wh, p + ofs.b, f, h, *xs[t], hp, cp,
                    gates(t), cell(t), tanh_c(t), hid(t), n);
  }
  dense_forward_slice({p + ofs.w_head, h * o + o}, h, o, hid(T - 1), pred, n);

  const double value = loss_value(loss, pred, y);
  loss_grad(loss, pred, y, grad_out);

  // ---- Backward into the gradient span. ----
  head_backward(p + ofs.w_head, h, o, grad_out, hid(T - 1), dh,
                g + ofs.w_head, g + ofs.b_head, n);
  const double* pwh = p + ofs.wh;
  for (std::size_t t = T; t-- > 0;) {
    const Matrix& gt = gates(t);
    const Matrix& tc_t = tanh_c(t);
    const Matrix* c_prev = t > 0 ? &cell(t - 1) : nullptr;
    const Matrix& h_prev = t > 0 ? hid(t - 1) : h0;
    // Phase 1 — elementwise deltas (identical scalar sequence per row).
    // The c_prev presence test is hoisted to a template parameter so the
    // j loop is branch-free and auto-vectorizes.
    for (std::size_t r = 0; r < n; ++r) {
      const double* zg = gt.row(r).data();
      const double* tc = tc_t.row(r).data();
      double* dhr = dh.row(r).data();
      double* dcr = dc.row(r).data();
      double* dzr = dz.row(r).data();
      if (c_prev != nullptr) {
        lstm_phase1_row<true>(zg, tc, c_prev->row(r).data(), dhr, dcr, dzr,
                              h);
      } else {
        lstm_phase1_row<false>(zg, tc, nullptr, dhr, dcr, dzr, h);
      }
    }
    // Phase 2 — parameter gradients + dh_{t-1} over all rows on the slab
    // kernels (rows ascending per element, as per row).
    const double* dz0 = dz.row(0).data();
    kernels::slab_outer_acc(xs[t]->row(0).data(), f, f, dz0, 4 * h, 4 * h, n,
                            g + ofs.wx, 4 * h, g + ofs.b);
    // At t == 0 there is no h_{-1}: no recurrent gradient, and dh_{-1}
    // would be read by nothing.
    if (t == 0) continue;
    kernels::slab_outer_acc(h_prev.row(0).data(), h, h, dz0, 4 * h, 4 * h, n,
                            g + ofs.wh, 4 * h, nullptr);
    kernels::slab_dot(dz0, 4 * h, 4 * h, n, pwh, 4 * h, h, dh.row(0).data(),
                      h);
  }

  clip_and_step(gspan, clip_norm, opt, net.parameters());
  kernels::note_train_batch();
  ws.reset(mark);
  return value;
}

// -------------------------------------------------------------- GRU step --

double gru_train_step(GruRegressor& net, std::span<const Matrix* const> xs,
                      const Matrix& y, LossKind loss, Optimizer& opt,
                      double clip_norm) {
  const std::size_t T = xs.size();
  const std::size_t n = y.rows();
  const std::size_t f = net.feature_dim();
  const std::size_t h = net.hidden_dim();
  const std::size_t o = net.output_dim();
  assert(T > 0 && y.cols() == o);
#ifndef NDEBUG
  for (const Matrix* x : xs) assert(x->rows() >= n && x->cols() == f);
#endif
  const GruOffsets ofs = gru_offsets(f, h, o);
  const double* p = net.parameters().data();

  // Same scheme (and same bitwise argument) as lstm_train_step.
  Workspace& ws = thread_scratch();
  const std::size_t mark = ws.cursor();
  const std::span<double> gspan = take_gradients(ws, ofs.total);
  double* g = gspan.data();
  // Step t's gates and h are slots first + 2t + 0..1.
  const std::size_t first = ws.cursor();
  for (std::size_t t = 0; t < T; ++t) {
    ws.take(n, 3 * h);
    ws.take(n, h);
  }
  const auto gates = [&](std::size_t t) -> Matrix& {
    return ws.slot(first + 2 * t);
  };
  const auto hid = [&](std::size_t t) -> Matrix& {
    return ws.slot(first + 2 * t + 1);
  };
  Matrix& h0 = ws.take(n, h);
  Matrix& pred = ws.take(n, o);
  Matrix& grad_out = ws.take(n, o);
  Matrix& dh = ws.take(n, h);
  Matrix& dz = ws.take(n, 3 * h);
  // kRB (r ⊙ h) coefficient rows for the forward step.
  Matrix& coeff = ws.take(kRB, h);
  // Backward per-row scratch (recurrent dots, then (r ⊙ h) coefficients).
  Matrix& scratch = ws.take(n, h);
  h0.zero();

  for (std::size_t t = 0; t < T; ++t) {
    const Matrix& hp = t > 0 ? hid(t - 1) : h0;
    gru_step_slice(p + ofs.wx, p + ofs.wh, p + ofs.b, f, h, *xs[t], hp,
                   gates(t), hid(t), coeff, n);
  }
  dense_forward_slice({p + ofs.w_head, h * o + o}, h, o, hid(T - 1), pred, n);

  const double value = loss_value(loss, pred, y);
  loss_grad(loss, pred, y, grad_out);

  head_backward(p + ofs.w_head, h, o, grad_out, hid(T - 1), dh,
                g + ofs.w_head, g + ofs.b_head, n);
  const double* pwh = p + ofs.wh;
  for (std::size_t t = T; t-- > 0;) {
    const Matrix& gt = gates(t);
    const Matrix& h_prev = t > 0 ? hid(t - 1) : h0;
    // Phase 1 — elementwise deltas, then the recurrent dots over all rows
    // into `scratch`, then their elementwise uses: the candidate dots
    // read only dz[2h, 3h), written above them, and all of them land
    // before the z/r dots read dz[0, 2h).
    for (std::size_t r = 0; r < n; ++r) {
      const double* zg = gt.row(r).data();
      const double* hp = h_prev.row(r).data();
      double* dhr = dh.row(r).data();
      double* dzr = dz.row(r).data();
      for (std::size_t j = 0; j < h; ++j) {
        const double z_g = zg[j];
        const double cand = zg[2 * h + j];
        const double dht = dhr[j];

        const double dzg = dht * (cand - hp[j]);
        const double dcand = dht * z_g;
        dhr[j] = dht * (1.0 - z_g);

        const double dcand_pre = dcand * (1.0 - cand * cand);
        dzr[2 * h + j] = dcand_pre;
        dzr[j] = dzg * z_g * (1.0 - z_g);
        dzr[h + j] = 0.0;
      }
    }
    const double* dz0 = dz.row(0).data();
    double* sc0 = scratch.row(0).data();
    kernels::slab_dot(dz0 + 2 * h, 3 * h, h, n, pwh + 2 * h, 3 * h, h, sc0, h);
    for (std::size_t r = 0; r < n; ++r) {
      const double* zg = gt.row(r).data();
      const double* hp = h_prev.row(r).data();
      const double* sc = scratch.row(r).data();
      double* dhr = dh.row(r).data();
      double* dzr = dz.row(r).data();
      for (std::size_t k = 0; k < h; ++k) {
        const double rk = zg[h + k];
        dzr[h + k] = sc[k] * hp[k] * rk * (1.0 - rk);
        if (t > 0) dhr[k] += sc[k] * rk;
      }
    }
    if (t > 0) {  // dh_{-1} would be read by nothing
      kernels::slab_dot(dz0, 3 * h, 2 * h, n, pwh, 3 * h, h, sc0, h);
      for (std::size_t r = 0; r < n; ++r) {
        const double* sc = scratch.row(r).data();
        double* dhr = dh.row(r).data();
        for (std::size_t k = 0; k < h; ++k) dhr[k] += sc[k];
      }
    }
    // Phase 2 — parameter gradients over all rows. The candidate column
    // block of W_h takes the (r ⊙ h) coefficients, built into `scratch`
    // (the dots above are consumed).
    kernels::slab_outer_acc(xs[t]->row(0).data(), f, f, dz0, 3 * h, 3 * h, n,
                            g + ofs.wx, 3 * h, g + ofs.b);
    kernels::slab_outer_acc(h_prev.row(0).data(), h, h, dz0, 3 * h, 2 * h, n,
                            g + ofs.wh, 3 * h, nullptr);
    for (std::size_t r = 0; r < n; ++r) {
      const double* zg = gt.row(r).data();
      const double* hp = h_prev.row(r).data();
      double* cf = scratch.row(r).data();
      for (std::size_t k = 0; k < h; ++k) cf[k] = zg[h + k] * hp[k];
    }
    kernels::slab_outer_acc(sc0, h, h, dz0 + 2 * h, 3 * h, h, n,
                            g + ofs.wh + 2 * h, 3 * h, nullptr);
  }

  clip_and_step(gspan, clip_norm, opt, net.parameters());
  kernels::note_train_batch();
  ws.reset(mark);
  return value;
}

// -------------------------------------------------------------- MLP step --

// A row's activations depend on its own input row only, and activations
// are element-independent, so a pass over rows [0, rows) is bitwise
// those rows of a pass over any larger batch.
MlpTape mlp_forward(const Mlp& net, const Matrix& x, std::size_t rows,
                    Workspace& ws) {
  const auto& dims = net.dims();
  const std::size_t layers = net.num_layers();
  MlpTape tape{&x, rows, ws.cursor(), nullptr};
  const Matrix* cur = &x;
  for (std::size_t l = 0; l < layers; ++l) {
    Matrix& out = ws.take(rows, dims[l + 1]);
    dense_forward_slice(net.layer_parameters(l), dims[l], dims[l + 1], *cur,
                        out, rows);
    const Activation act =
        l + 1 == layers ? net.output_activation() : net.hidden_activation();
    activate_inplace(act, out);
    cur = &out;
  }
  tape.out = cur;
  return tape;
}

void mlp_backward(const Mlp& net, const MlpTape& tape, Matrix& grad_out,
                  std::span<double> grads, Workspace& ws) {
  assert(grads.size() == net.parameter_count());
  const auto& dims = net.dims();
  const std::size_t layers = net.num_layers();
  Matrix* g = &grad_out;
  for (std::size_t l = layers; l-- > 0;) {
    const Activation act =
        l + 1 == layers ? net.output_activation() : net.hidden_activation();
    scale_by_activation_grad(act, ws.slot(tape.first_slot + l), *g);
    Matrix* gx = l > 0 ? &ws.take(tape.rows, dims[l]) : nullptr;
    const Matrix& in = l == 0 ? *tape.x : ws.slot(tape.first_slot + l - 1);
    dense_backward(net.layer_parameters(l), dims[l], dims[l + 1], in, *g,
                   grads.subspan(net.layer_offset(l), net.layer_param_count(l)),
                   gx, tape.rows);
    g = gx;
  }
}

double mlp_train_step(Mlp& net, const Matrix& x, const Matrix& y,
                      LossKind loss, Optimizer& opt) {
  const std::size_t n = y.rows();
  if (x.rows() < n) {
    throw std::invalid_argument("mlp_train_step: batch rows exceed input rows");
  }
  assert(x.cols() == net.input_dim() && y.cols() == net.output_dim());
  Workspace& ws = thread_scratch();
  const std::size_t mark = ws.cursor();
  const std::span<double> grads = take_gradients(ws, net.parameter_count());
  const MlpTape tape = mlp_forward(net, x, n, ws);
  Matrix& grad = ws.take(n, net.output_dim());
  const double value = loss_value(loss, *tape.out, y);
  loss_grad(loss, *tape.out, y, grad);
  mlp_backward(net, tape, grad, grads, ws);
  opt.step(net.parameters(), grads);
  kernels::note_train_batch();
  ws.reset(mark);
  return value;
}

}  // namespace pfdrl::nn
