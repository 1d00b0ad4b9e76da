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
#include "util/thread_pool.hpp"

namespace pfdrl::nn {

namespace {

constexpr std::size_t kRB = kernels::kRowBlock;

/// Row pointers of a block of kRB consecutive slab rows.
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

/// Member shape uniformity is checked by each trainer; the slices must
/// tile [0, rows) of the slab in order.
void check_slices(std::span<const FusedSlice> slices, std::size_t rows) {
  std::size_t at = 0;
  for (const FusedSlice& s : slices) {
    if (s.row_begin != at) {
      throw std::invalid_argument("fused: slices must tile the slab in order");
    }
    at += s.rows;
  }
  if (at != rows) {
    throw std::invalid_argument("fused: slices must cover every slab row");
  }
}

/// Validates a recurrent batch (slice tiling, one (F, H, O) shape across
/// members, inputs covering the batch) and returns its slab row count.
template <class Net>
std::size_t recurrent_batch_rows(std::span<Net* const> nets,
                                 std::span<const FusedSlice> slices,
                                 std::span<const Matrix* const> xs,
                                 const Matrix& y, std::size_t src_row0,
                                 const char* mismatch) {
  std::size_t rows = 0;
  for (const FusedSlice& s : slices) rows += s.rows;
  check_slices(slices, rows);
  const Net& n0 = *nets[0];
  for (const Net* n : nets) {
    if (n->feature_dim() != n0.feature_dim() ||
        n->hidden_dim() != n0.hidden_dim() ||
        n->output_dim() != n0.output_dim()) {
      throw std::invalid_argument(mismatch);
    }
  }
#ifndef NDEBUG
  for (const Matrix* x : xs) {
    assert(x->rows() >= src_row0 + rows && x->cols() == n0.feature_dim());
  }
  assert(y.rows() >= src_row0 + rows);
#else
  (void)xs;
  (void)y;
  (void)src_row0;
#endif
  return rows;
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
/// x rows are read at in_row0 + r. `grad_y` must already hold the
/// pre-activation delta.
void dense_backward(std::span<const double> params, std::size_t in,
                    std::size_t out, const Matrix& x, std::size_t in_row0,
                    const Matrix& grad_y, std::span<double> grad_params,
                    Matrix* grad_x, std::size_t rows) {
  const double* dy = grad_y.row(0).data();
  kernels::slab_outer_acc(x.row(in_row0).data(), x.cols(), in, dy, out, out,
                          rows, grad_params.data(), out,
                          grad_params.data() + in * out);
  if (grad_x != nullptr) {
    kernels::slab_dot(dy, out, out, rows, params.data(), out, in,
                      grad_x->row(0).data(), grad_x->cols());
  }
}

}  // namespace

// ------------------------------------------------- per-layer step functions --

// One LSTM step over one slice's rows: blocked gate preactivation, then
// the per-row nonlinearity/state-update sequence. `x_row0` offsets the
// rows read from x (the forecast epoch arena); the state slabs stay
// batch-local.
void lstm_step_slice(const double* pwx, const double* pwh, const double* pb,
                     std::size_t f, std::size_t h, const Matrix& x,
                     std::size_t x_row0, const Matrix& h_prev,
                     const Matrix& c_prev, Matrix& gates, Matrix& c,
                     Matrix& tanh_c, Matrix& hm, const FusedSlice& s) {
  const std::size_t g4 = 4 * h;
  const std::size_t r_end = s.row_begin + s.rows;
  std::size_t r = s.row_begin;
  for (; r + kRB <= r_end; r += kRB) {
    double* zr[kRB];
    const double* xr[kRB];
    const double* hr[kRB];
    block_rows(gates, r, zr);
    block_rows_const(x, x_row0 + r, xr);
    block_rows_const(h_prev, r, hr);
    kernels::fused_gates_rows(pb, xr, f, pwx, hr, h, pwh, g4, zr, g4);
  }
  for (; r < r_end; ++r) {
    double* z = gates.row(r).data();
    for (std::size_t j = 0; j < g4; ++j) z[j] = pb[j];
    const double* xr = x.row(x_row0 + r).data();
    for (std::size_t k = 0; k < f; ++k) {
      kernels::axpy(xr[k], pwx + k * g4, z, g4);
    }
    const double* hr = h_prev.row(r).data();
    for (std::size_t k = 0; k < h; ++k) {
      kernels::axpy(hr[k], pwh + k * g4, z, g4);
    }
  }
  for (r = s.row_begin; r < r_end; ++r) {
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

// One GRU step over one slice's rows. `x_row0` offsets the rows read
// from x, as in lstm_step_slice. The bias fill + input matrix ride the
// specialized fused_gates_rows register tile (its generic fallback is
// literally that bias-fill + fused_acc_rows sequence, so the swap is
// bitwise free); the recurrent matrix cannot join the same call because
// it only feeds the z/r gate columns until (r ⊙ h) is known.
void gru_step_slice(const double* pwx, const double* pwh, const double* pb,
                    std::size_t f, std::size_t h, const Matrix& x,
                    std::size_t x_row0, const Matrix& h_prev, Matrix& gates,
                    Matrix& hm, Matrix& coeff, std::size_t coeff_base,
                    const FusedSlice& s) {
  const std::size_t g3 = 3 * h;
  const std::size_t r_end = s.row_begin + s.rows;
  std::size_t r = s.row_begin;
  for (; r + kRB <= r_end; r += kRB) {
    double* zr[kRB];
    const double* xr[kRB];
    const double* hp[kRB];
    block_rows(gates, r, zr);
    block_rows_const(x, x_row0 + r, xr);
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
      cf[i] = coeff.row(coeff_base + i).data();
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
  for (; r < r_end; ++r) {
    double* z = gates.row(r).data();
    for (std::size_t j = 0; j < g3; ++j) z[j] = pb[j];
    const double* xr = x.row(x_row0 + r).data();
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

// Dense forward preactivation for one slice (activation applies to the
// whole slab or slice afterwards). `in_row0` offsets the rows read from x
// (nonzero only for the input layer when the batch lives inside an epoch
// arena). Leftover rows go through matvec1, bitwise the tile's rows by the
// dense.hpp contract, so slicing never changes results.
void dense_forward_slice(std::span<const double> params, std::size_t in,
                         std::size_t out, const Matrix& x, std::size_t in_row0,
                         Matrix& y, const FusedSlice& s) {
  const double* w = params.data();
  const double* b = params.data() + in * out;
  const std::size_t r_end = s.row_begin + s.rows;
  std::size_t r = s.row_begin;
  for (; r + kRB <= r_end; r += kRB) {
    double* yr[kRB];
    const double* xr[kRB];
    block_rows(y, r, yr);
    block_rows_const(x, in_row0 + r, xr);
    kernels::fused_gates_rows(b, xr, in, w, nullptr, 0, nullptr, out, yr, out);
  }
  for (; r < r_end; ++r) {
    matvec1(params.first(in * out), params.subspan(in * out, out),
            x.row(in_row0 + r), in, out, y.row(r));
  }
}

// note_fused_batch and the fused telemetry getters live in kernels.cpp
// next to the train-batch counter, so the sanitizer stress jobs (which
// rebuild kernels.cpp + metrics.cpp without this file) still link.

// ------------------------------------------------------------ FusedLstm --

void FusedLstm::train_batch(std::span<LstmRegressor* const> nets,
                            std::span<const FusedSlice> slices,
                            std::span<const Matrix* const> xs, const Matrix& y,
                            LossKind loss, std::span<Optimizer* const> opts,
                            std::span<double> losses, double clip_norm,
                            std::size_t src_row0) {
  const std::size_t members = nets.size();
  if (members == 0 || xs.empty()) return;
  assert(slices.size() == members && opts.size() == members &&
         losses.size() == members);
  const std::size_t T = xs.size();
  const std::size_t rows = recurrent_batch_rows(
      nets, slices, xs, y, src_row0, "FusedLstm: member shape mismatch");
  if (rows == 0) return;
  const LstmRegressor& n0 = *nets[0];
  const std::size_t f = n0.feature_dim();
  const std::size_t h = n0.hidden_dim();
  const std::size_t o = n0.output_dim();
  const LstmOffsets ofs = lstm_offsets(f, h, o);

  // ---- Member-major execution: one task per member runs its forward,
  // loss, BPTT, clip and Adam step on its own slab rows against its own
  // bank, with every intermediate and its gradient span in the running
  // thread's scratch. Members share no accumulator, so fanning them out
  // across the pool cannot change any member's arithmetic — each member's
  // result stays bitwise its group-of-one result at every thread count.
  // Member-major order also keeps each bank hot in cache for the whole
  // sequence instead of re-streaming every bank per timestep.
  const auto member_task = [&](std::size_t i) {
    const std::size_t n = slices[i].rows;
    const std::size_t x0 = src_row0 + slices[i].row_begin;  // slab rows
    const FusedSlice own{0, n};
    const double* p = nets[i]->parameters().data();
    Workspace& ws = thread_scratch();
    ws.reset();
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

    // ---- Forward: all T steps over this member's rows. ----
    for (std::size_t t = 0; t < T; ++t) {
      const Matrix& hp = t > 0 ? hid(t - 1) : h0;
      const Matrix& cp = t > 0 ? cell(t - 1) : c0;
      lstm_step_slice(p + ofs.wx, p + ofs.wh, p + ofs.b, f, h, *xs[t], x0, hp,
                      cp, gates(t), cell(t), tanh_c(t), hid(t), own);
    }
    dense_forward_slice({p + ofs.w_head, h * o + o}, h, o, hid(T - 1), 0, pred,
                        own);

    // ---- Loss over this member's rows (targets sit at its slab rows). ----
    losses[i] = loss_value_rows(loss, pred, 0, y, x0, n);
    loss_grad_rows(loss, pred, 0, y, x0, n, grad_out);

    // ---- Backward into the member's gradient span. ----
    head_backward(p + ofs.w_head, h, o, grad_out, hid(T - 1), dh,
                  g + ofs.w_head, g + ofs.b_head, n);
    const double* pwh = p + ofs.wh;
    for (std::size_t t = T; t-- > 0;) {
      const Matrix& gt = gates(t);
      const Matrix& tc_t = tanh_c(t);
      const Matrix* c_prev = t > 0 ? &cell(t - 1) : nullptr;
      const Matrix& h_prev = t > 0 ? hid(t - 1) : h0;
      // Phase 1 — elementwise deltas (identical scalar sequence per
      // row). The c_prev presence test is hoisted to a template
      // parameter so the j loop is branch-free and auto-vectorizes.
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
      // Phase 2 — parameter gradients + dh_{t-1} over all the member's
      // rows on the slab kernels (rows ascending per element, as per row).
      const double* dz0 = dz.row(0).data();
      kernels::slab_outer_acc(xs[t]->row(x0).data(), f, f, dz0, 4 * h, 4 * h,
                              n, g + ofs.wx, 4 * h, g + ofs.b);
      // At t == 0 there is no h_{-1}: no recurrent gradient, and dh_{-1}
      // would be read by nothing.
      if (t == 0) continue;
      kernels::slab_outer_acc(h_prev.row(0).data(), h, h, dz0, 4 * h, 4 * h,
                              n, g + ofs.wh, 4 * h, nullptr);
      kernels::slab_dot(dz0, 4 * h, 4 * h, n, pwh, 4 * h, h, dh.row(0).data(),
                        h);
    }

    clip_and_step(gspan, clip_norm, *opts[i], nets[i]->parameters());
    kernels::note_train_batch();
  };
  util::ThreadPool::global().parallel_for(0, members, member_task);
  note_fused_batch(members, rows);
}

// ------------------------------------------------------------- FusedGru --

void FusedGru::train_batch(std::span<GruRegressor* const> nets,
                           std::span<const FusedSlice> slices,
                           std::span<const Matrix* const> xs, const Matrix& y,
                           LossKind loss, std::span<Optimizer* const> opts,
                           std::span<double> losses, double clip_norm,
                           std::size_t src_row0) {
  const std::size_t members = nets.size();
  if (members == 0 || xs.empty()) return;
  assert(slices.size() == members && opts.size() == members &&
         losses.size() == members);
  const std::size_t T = xs.size();
  const std::size_t rows = recurrent_batch_rows(
      nets, slices, xs, y, src_row0, "FusedGru: member shape mismatch");
  if (rows == 0) return;
  const GruRegressor& n0 = *nets[0];
  const std::size_t f = n0.feature_dim();
  const std::size_t h = n0.hidden_dim();
  const std::size_t o = n0.output_dim();
  const GruOffsets ofs = gru_offsets(f, h, o);

  // Member-major execution on thread scratch, same scheme (and same
  // bitwise argument) as FusedLstm::train_batch.
  const auto member_task = [&](std::size_t i) {
    const std::size_t n = slices[i].rows;
    const std::size_t x0 = src_row0 + slices[i].row_begin;  // slab rows
    const FusedSlice own{0, n};
    const double* p = nets[i]->parameters().data();
    Workspace& ws = thread_scratch();
    ws.reset();
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
      gru_step_slice(p + ofs.wx, p + ofs.wh, p + ofs.b, f, h, *xs[t], x0, hp,
                     gates(t), hid(t), coeff, 0, own);
    }
    dense_forward_slice({p + ofs.w_head, h * o + o}, h, o, hid(T - 1), 0, pred,
                        own);

    losses[i] = loss_value_rows(loss, pred, 0, y, x0, n);
    loss_grad_rows(loss, pred, 0, y, x0, n, grad_out);

    head_backward(p + ofs.w_head, h, o, grad_out, hid(T - 1), dh,
                  g + ofs.w_head, g + ofs.b_head, n);
    const double* pwh = p + ofs.wh;
    for (std::size_t t = T; t-- > 0;) {
      const Matrix& gt = gates(t);
      const Matrix& h_prev = t > 0 ? hid(t - 1) : h0;
      // Phase 1 — elementwise deltas, then the recurrent dots over all
      // the member's rows into `scratch`, then their elementwise uses:
      // the candidate dots read only dz[2h, 3h), written above them, and
      // all of them land before the z/r dots read dz[0, 2h).
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
      kernels::slab_dot(dz0 + 2 * h, 3 * h, h, n, pwh + 2 * h, 3 * h, h, sc0,
                        h);
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
      // Phase 2 — parameter gradients over all the member's rows. The
      // candidate column block of W_h takes the (r ⊙ h) coefficients,
      // built into `scratch` (the dots above are consumed).
      kernels::slab_outer_acc(xs[t]->row(x0).data(), f, f, dz0, 3 * h, 3 * h,
                              n, g + ofs.wx, 3 * h, g + ofs.b);
      kernels::slab_outer_acc(h_prev.row(0).data(), h, h, dz0, 3 * h, 2 * h,
                              n, g + ofs.wh, 3 * h, nullptr);
      for (std::size_t r = 0; r < n; ++r) {
        const double* zg = gt.row(r).data();
        const double* hp = h_prev.row(r).data();
        double* cf = scratch.row(r).data();
        for (std::size_t k = 0; k < h; ++k) cf[k] = zg[h + k] * hp[k];
      }
      kernels::slab_outer_acc(sc0, h, h, dz0 + 2 * h, 3 * h, h, n,
                              g + ofs.wh + 2 * h, 3 * h, nullptr);
    }

    clip_and_step(gspan, clip_norm, *opts[i], nets[i]->parameters());
    kernels::note_train_batch();
  };
  util::ThreadPool::global().parallel_for(0, members, member_task);
  note_fused_batch(members, rows);
}

// ------------------------------------------------------------- FusedMlp --

// A row's activations depend on its own input row only, and the
// per-member activation application is bitwise the whole-batch one
// (element-independent), so a member's pass never depends on where its
// rows sit in the caller's slab.
MlpTape mlp_forward(const Mlp& net, const Matrix& x, std::size_t x_row0,
                    std::size_t rows, Workspace& ws) {
  const auto& dims = net.dims();
  const std::size_t layers = net.num_layers();
  const FusedSlice own{0, rows};
  MlpTape tape{&x, x_row0, rows, ws.cursor(), nullptr};
  const Matrix* cur = &x;
  for (std::size_t l = 0; l < layers; ++l) {
    Matrix& out = ws.take(rows, dims[l + 1]);
    dense_forward_slice(net.layer_parameters(l), dims[l], dims[l + 1], *cur,
                        l == 0 ? x_row0 : 0, out, own);
    const Activation act =
        l + 1 == layers ? net.output_activation() : net.hidden_activation();
    activate_rows(act, out, 0, rows);
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
    scale_by_activation_grad_rows(act, ws.slot(tape.first_slot + l), *g, 0,
                                  tape.rows);
    Matrix* gx = l > 0 ? &ws.take(tape.rows, dims[l]) : nullptr;
    const Matrix& in = l == 0 ? *tape.x : ws.slot(tape.first_slot + l - 1);
    dense_backward(net.layer_parameters(l), dims[l], dims[l + 1], in,
                   l == 0 ? tape.x_row0 : 0, *g,
                   grads.subspan(net.layer_offset(l), net.layer_param_count(l)),
                   gx, tape.rows);
    g = gx;
  }
}

void FusedMlp::train_batch(std::span<Mlp* const> nets,
                           std::span<const FusedSlice> slices, const Matrix& x,
                           const Matrix& y, LossKind loss,
                           std::span<Optimizer* const> opts,
                           std::span<double> losses, std::size_t src_row0) {
  assert(!nets.empty() && slices.size() == nets.size() &&
         opts.size() == nets.size() && losses.size() == nets.size());
  std::size_t rows = 0;
  for (const FusedSlice& s : slices) rows += s.rows;
  check_slices(slices, rows);
  if (src_row0 + rows > x.rows()) {
    throw std::invalid_argument("FusedMlp: batch rows exceed input rows");
  }
  for (const Mlp* n : nets) {
    if (!n->same_architecture(*nets[0])) {
      throw std::invalid_argument("FusedMlp: member architecture mismatch");
    }
  }
  // One task per member runs forward, loss, backward and step over its
  // own slab rows and its own bank, on its thread's scratch.
  util::ThreadPool::global().parallel_for(0, nets.size(), [&](std::size_t i) {
    Mlp& net = *nets[i];
    const std::size_t n = slices[i].rows;
    const std::size_t x0 = src_row0 + slices[i].row_begin;
    Workspace& ws = thread_scratch();
    ws.reset();
    const std::span<double> grads = take_gradients(ws, net.parameter_count());
    const MlpTape tape = mlp_forward(net, x, x0, n, ws);
    Matrix& grad = ws.take(n, net.output_dim());
    losses[i] = loss_value_rows(loss, *tape.out, 0, y, x0, n);
    loss_grad_rows(loss, *tape.out, 0, y, x0, n, grad);
    mlp_backward(net, tape, grad, grads, ws);
    opts[i]->step(net.parameters(), grads);
    kernels::note_train_batch();
  });
  note_fused_batch(nets.size(), rows);
}

}  // namespace pfdrl::nn
