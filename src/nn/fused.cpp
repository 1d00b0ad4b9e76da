#include "nn/fused.hpp"

#include <atomic>
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

/// Head backward for one slice: bias/outer accumulation into the member's
/// head gradients and dh[r][k] = dot(grad_out[r], W_head row k), on the
/// slab kernels (bitwise their per-row sequence, see kernels.hpp).
void head_backward_slice(const double* w, std::size_t h, std::size_t o,
                         const Matrix& grad_out, const Matrix& h_last,
                         Matrix& dh, double* gw_head, double* gb_head,
                         const FusedSlice& s) {
  const double* go = grad_out.row(s.row_begin).data();
  kernels::slab_outer_acc(h_last.row(s.row_begin).data(), h, h, go, o, o,
                          s.rows, gw_head, o, gb_head);
  kernels::slab_dot(go, o, o, s.rows, w, o, h, dh.row(s.row_begin).data(), h);
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

/// Dense backward for one slice on the slab kernels: bias/weight
/// gradients into the member's own gradient slice, dL/dx rows into
/// grad_x. `grad_y` must already hold the pre-activation delta (the
/// caller scales the slab once — element-independent, so slab-wide
/// equals per-slice).
void dense_backward_slice(std::span<const double> params, std::size_t in,
                          std::size_t out, const Matrix& x,
                          std::size_t in_row0, const Matrix& grad_y,
                          std::span<double> grad_params, Matrix* grad_x,
                          const FusedSlice& s) {
  const double* dy = grad_y.row(s.row_begin).data();
  kernels::slab_outer_acc(x.row(in_row0 + s.row_begin).data(), x.cols(), in,
                          dy, out, out, s.rows, grad_params.data(), out,
                          grad_params.data() + in * out);
  if (grad_x != nullptr) {
    kernels::slab_dot(dy, out, out, s.rows, params.data(), out, in,
                      grad_x->row(s.row_begin).data(), grad_x->cols());
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
  std::size_t rows = 0;
  for (const FusedSlice& s : slices) rows += s.rows;
  check_slices(slices, rows);
  if (rows == 0) return;
  const LstmRegressor& n0 = *nets[0];
  const std::size_t f = n0.feature_dim();
  const std::size_t h = n0.hidden_dim();
  const std::size_t o = n0.output_dim();
  const LstmOffsets ofs = lstm_offsets(f, h, o);
  for (const LstmRegressor* n : nets) {
    if (n->feature_dim() != f || n->hidden_dim() != h ||
        n->output_dim() != o) {
      throw std::invalid_argument("FusedLstm: member shape mismatch");
    }
  }

  ws_.reset();
  gates_.resize(T);
  c_.resize(T);
  tanh_c_.resize(T);
  h_.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    gates_[t] = &ws_.take(rows, 4 * h);
    c_[t] = &ws_.take(rows, h);
    tanh_c_[t] = &ws_.take(rows, h);
    h_[t] = &ws_.take(rows, h);
  }
  Matrix& h0 = ws_.take(rows, h);
  Matrix& c0 = ws_.take(rows, h);
  Matrix& pred = ws_.take(rows, o);
  Matrix& grad_out = ws_.take(rows, o);
  Matrix& dh = ws_.take(rows, h);
  Matrix& dc = ws_.take(rows, h);
  Matrix& dz = ws_.take(rows, 4 * h);
  h0.zero();
  c0.zero();

#ifndef NDEBUG
  for (std::size_t t = 0; t < T; ++t) {
    assert(xs[t]->rows() >= src_row0 + rows && xs[t]->cols() == f);
  }
  assert(y.rows() >= src_row0 + rows);
#endif

  // ---- Member-major execution: one task per member runs its forward,
  // loss, BPTT, clip and Adam step over its own slice rows against its
  // own bank. Members share the activation/delta slabs but write
  // disjoint row ranges and never share an accumulator, so fanning the
  // members out across the pool cannot change any member's arithmetic —
  // each member's result stays bitwise its group-of-one result at every
  // thread count. Member-major order also keeps each bank hot in cache
  // for the whole sequence instead of re-streaming every bank per
  // timestep.
  grads_.assign(members * ofs.total, 0.0);
  dc.zero();
  const auto member_task = [&](std::size_t i) {
    const FusedSlice& s = slices[i];
    const double* p = nets[i]->parameters().data();

    // ---- Forward: all T steps over this member's rows. ----
    for (std::size_t t = 0; t < T; ++t) {
      const Matrix& hp = t > 0 ? *h_[t - 1] : h0;
      const Matrix& cp = t > 0 ? *c_[t - 1] : c0;
      lstm_step_slice(p + ofs.wx, p + ofs.wh, p + ofs.b, f, h, *xs[t],
                      src_row0, hp, cp, *gates_[t], *c_[t], *tanh_c_[t],
                      *h_[t], s);
    }
    dense_forward_slice({p + ofs.w_head, h * o + o}, h, o, *h_[T - 1], 0, pred,
                        s);

    // ---- Loss over this member's row range (targets sit at the arena
    // offset; predictions are batch-local). ----
    losses[i] = loss_value_rows(loss, pred, s.row_begin, y,
                                src_row0 + s.row_begin, s.rows);
    loss_grad_rows(loss, pred, s.row_begin, y, src_row0 + s.row_begin, s.rows,
                   grad_out);

    // ---- Backward: shared delta slabs, own gradient bank. ----
    double* g = grads_.data() + i * ofs.total;
    head_backward_slice(p + ofs.w_head, h, o, grad_out, *h_[T - 1], dh,
                        g + ofs.w_head, g + ofs.b_head, s);
    const double* pwh = p + ofs.wh;
    for (std::size_t t = T; t-- > 0;) {
      const Matrix& gates = *gates_[t];
      const Matrix& tanh_c = *tanh_c_[t];
      const Matrix* c_prev = t > 0 ? c_[t - 1] : nullptr;
      const Matrix& h_prev = t > 0 ? *h_[t - 1] : h0;
      const std::size_t r_end = s.row_begin + s.rows;
      // Phase 1 — elementwise deltas (identical scalar sequence per
      // row). The c_prev presence test is hoisted to a template
      // parameter so the j loop is branch-free and auto-vectorizes.
      for (std::size_t r = s.row_begin; r < r_end; ++r) {
        const double* zg = gates.row(r).data();
        const double* tc = tanh_c.row(r).data();
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
      // Phase 2 — parameter gradients + dh_{t-1} over the whole slice
      // on the slab kernels (rows ascending per element, as per row).
      const double* dz0 = dz.row(s.row_begin).data();
      kernels::slab_outer_acc(xs[t]->row(src_row0 + s.row_begin).data(), f,
                              f, dz0, 4 * h, 4 * h, s.rows, g + ofs.wx, 4 * h,
                              g + ofs.b);
      // At t == 0 there is no h_{-1}: no recurrent gradient, and dh_{-1}
      // would be read by nothing.
      if (t == 0) continue;
      kernels::slab_outer_acc(h_prev.row(s.row_begin).data(), h, h, dz0,
                              4 * h, 4 * h, s.rows, g + ofs.wh, 4 * h,
                              nullptr);
      kernels::slab_dot(dz0, 4 * h, 4 * h, s.rows, pwh, 4 * h, h,
                        dh.row(s.row_begin).data(), h);
    }

    // ---- Clip + optimizer step. ----
    std::span<double> gspan(g, ofs.total);
    if (clip_norm > 0.0) {
      const double sq = kernels::dot(gspan.data(), gspan.data(), gspan.size());
      const double norm = std::sqrt(sq);
      if (norm > clip_norm) {
        const double scale = clip_norm / norm;
        for (double& gv : gspan) gv *= scale;
      }
    }
    opts[i]->step(nets[i]->parameters(), gspan);
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
  std::size_t rows = 0;
  for (const FusedSlice& s : slices) rows += s.rows;
  check_slices(slices, rows);
  if (rows == 0) return;
  const GruRegressor& n0 = *nets[0];
  const std::size_t f = n0.feature_dim();
  const std::size_t h = n0.hidden_dim();
  const std::size_t o = n0.output_dim();
  const GruOffsets ofs = gru_offsets(f, h, o);
  for (const GruRegressor* n : nets) {
    if (n->feature_dim() != f || n->hidden_dim() != h ||
        n->output_dim() != o) {
      throw std::invalid_argument("FusedGru: member shape mismatch");
    }
  }

  ws_.reset();
  gates_.resize(T);
  h_.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    gates_[t] = &ws_.take(rows, 3 * h);
    h_[t] = &ws_.take(rows, h);
  }
  Matrix& h0 = ws_.take(rows, h);
  Matrix& pred = ws_.take(rows, o);
  Matrix& grad_out = ws_.take(rows, o);
  Matrix& dh = ws_.take(rows, h);
  Matrix& dz = ws_.take(rows, 3 * h);
  // kRB (r ⊙ h) coefficient rows per member — member-private scratch.
  Matrix& coeff = ws_.take(members * kRB, h);
  // Backward per-row scratch (recurrent dots, then (r ⊙ h) coefficients);
  // each member uses its own slice rows.
  Matrix& scratch = ws_.take(rows, h);
  h0.zero();

#ifndef NDEBUG
  for (std::size_t t = 0; t < T; ++t) {
    assert(xs[t]->rows() >= src_row0 + rows && xs[t]->cols() == f);
  }
  assert(y.rows() >= src_row0 + rows);
#endif

  // Member-major execution, same scheme (and same bitwise argument) as
  // FusedLstm::train_batch: disjoint slice rows, no shared accumulators,
  // members fan out across the pool.
  grads_.assign(members * ofs.total, 0.0);
  const auto member_task = [&](std::size_t i) {
    const FusedSlice& s = slices[i];
    const double* p = nets[i]->parameters().data();
    const std::size_t coeff_base = i * kRB;

    for (std::size_t t = 0; t < T; ++t) {
      const Matrix& hp = t > 0 ? *h_[t - 1] : h0;
      gru_step_slice(p + ofs.wx, p + ofs.wh, p + ofs.b, f, h, *xs[t],
                     src_row0, hp, *gates_[t], *h_[t], coeff, coeff_base, s);
    }
    dense_forward_slice({p + ofs.w_head, h * o + o}, h, o, *h_[T - 1], 0, pred,
                        s);

    losses[i] = loss_value_rows(loss, pred, s.row_begin, y,
                                src_row0 + s.row_begin, s.rows);
    loss_grad_rows(loss, pred, s.row_begin, y, src_row0 + s.row_begin, s.rows,
                   grad_out);

    double* g = grads_.data() + i * ofs.total;
    head_backward_slice(p + ofs.w_head, h, o, grad_out, *h_[T - 1], dh,
                        g + ofs.w_head, g + ofs.b_head, s);
    const double* pwh = p + ofs.wh;
    for (std::size_t t = T; t-- > 0;) {
      const Matrix& gates = *gates_[t];
      const Matrix& h_prev = t > 0 ? *h_[t - 1] : h0;
      const std::size_t r_end = s.row_begin + s.rows;
      // Phase 1 — elementwise deltas, then the recurrent dots over the
      // whole slice into the member's rows of `scratch`, then their
      // elementwise uses: the candidate dots read only dz[2h, 3h),
      // written above them, and all of them land before the z/r dots
      // read dz[0, 2h).
      for (std::size_t r = s.row_begin; r < r_end; ++r) {
        const double* zg = gates.row(r).data();
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
      const double* dz0 = dz.row(s.row_begin).data();
      double* sc0 = scratch.row(s.row_begin).data();
      kernels::slab_dot(dz0 + 2 * h, 3 * h, h, s.rows, pwh + 2 * h, 3 * h, h,
                        sc0, h);
      for (std::size_t r = s.row_begin; r < r_end; ++r) {
        const double* zg = gates.row(r).data();
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
        kernels::slab_dot(dz0, 3 * h, 2 * h, s.rows, pwh, 3 * h, h, sc0, h);
        for (std::size_t r = s.row_begin; r < r_end; ++r) {
          const double* sc = scratch.row(r).data();
          double* dhr = dh.row(r).data();
          for (std::size_t k = 0; k < h; ++k) dhr[k] += sc[k];
        }
      }
      // Phase 2 — parameter gradients over the whole slice. The
      // candidate column block of W_h takes the (r ⊙ h) coefficients,
      // built into `scratch` (the dots above are consumed).
      const double* hp0 = h_prev.row(s.row_begin).data();
      kernels::slab_outer_acc(xs[t]->row(src_row0 + s.row_begin).data(), f,
                              f, dz0, 3 * h, 3 * h, s.rows, g + ofs.wx, 3 * h,
                              g + ofs.b);
      kernels::slab_outer_acc(hp0, h, h, dz0, 3 * h, 2 * h, s.rows,
                              g + ofs.wh, 3 * h, nullptr);
      for (std::size_t r = s.row_begin; r < r_end; ++r) {
        const double* zg = gates.row(r).data();
        const double* hp = h_prev.row(r).data();
        double* cf = scratch.row(r).data();
        for (std::size_t k = 0; k < h; ++k) cf[k] = zg[h + k] * hp[k];
      }
      kernels::slab_outer_acc(sc0, h, h, dz0 + 2 * h, 3 * h, h, s.rows,
                              g + ofs.wh + 2 * h, 3 * h, nullptr);
    }

    std::span<double> gspan(g, ofs.total);
    if (clip_norm > 0.0) {
      const double sq = kernels::dot(gspan.data(), gspan.data(), gspan.size());
      const double norm = std::sqrt(sq);
      if (norm > clip_norm) {
        const double scale = clip_norm / norm;
        for (double& gv : gspan) gv *= scale;
      }
    }
    opts[i]->step(nets[i]->parameters(), gspan);
    kernels::note_train_batch();
  };
  util::ThreadPool::global().parallel_for(0, members, member_task);
  note_fused_batch(members, rows);
}

// ------------------------------------------------------------- FusedMlp --

std::size_t FusedMlp::begin_forward(std::span<Mlp* const> nets,
                                    std::span<const FusedSlice> slices,
                                    const Matrix& x, std::size_t src_row0) {
  assert(!nets.empty() && nets.size() == slices.size());
  const Mlp& n0 = *nets[0];
  std::size_t rows = 0;
  for (const FusedSlice& s : slices) rows += s.rows;
  check_slices(slices, rows);
  if (src_row0 + rows > x.rows()) {
    throw std::invalid_argument("FusedMlp: batch rows exceed input rows");
  }
  for (const Mlp* n : nets) {
    if (!n->same_architecture(n0)) {
      throw std::invalid_argument("FusedMlp: member architecture mismatch");
    }
  }
  const auto& dims = n0.dims();
  const std::size_t layers = n0.num_layers();
  ws_.reset();
  acts_.assign(layers + 1, nullptr);
  input_ = &x;
  input_row0_ = src_row0;
  for (std::size_t l = 0; l < layers; ++l) {
    acts_[l + 1] = &ws_.take(rows, dims[l + 1]);
  }
  return rows;
}

void FusedMlp::take_delta_slabs(const Mlp& n0, std::size_t rows) {
  // Delta slabs for layers layers-1 .. 1, taken up front so the member
  // tasks never touch the workspace.
  const std::size_t layers = n0.num_layers();
  grad_slabs_.assign(layers, nullptr);
  for (std::size_t l = layers; l-- > 1;) {
    grad_slabs_[l] = &ws_.take(rows, n0.dims()[l]);
  }
}

// Member-major: each member drives its own slice rows through the whole
// layer stack (its activations depend on its own rows only), so the
// members fan out across the pool without changing any member's
// arithmetic. The per-slice activation application is bitwise the
// slab-wide one (element-independent).
void FusedMlp::forward_member(const Mlp& net, const FusedSlice& s) {
  const auto& dims = net.dims();
  const std::size_t layers = net.num_layers();
  const Matrix* cur = input_;
  for (std::size_t l = 0; l < layers; ++l) {
    Matrix& slab = *acts_[l + 1];
    dense_forward_slice(net.layer_parameters(l), dims[l], dims[l + 1], *cur,
                        l == 0 ? input_row0_ : 0, slab, s);
    const Activation act =
        l + 1 == layers ? net.output_activation() : net.hidden_activation();
    activate_rows(act, slab, s.row_begin, s.rows);
    cur = &slab;
  }
}

// Same scheme as forward_member: the member back-propagates its own slice
// rows into its own Mlp::gradients() buffer.
void FusedMlp::backward_member(Mlp& net, const FusedSlice& s,
                               Matrix& grad_out) {
  assert(net.gradients().size() == net.parameter_count() &&
         "zero_grad() before backward()");
  const auto& dims = net.dims();
  const std::size_t layers = net.num_layers();
  Matrix* g = &grad_out;
  for (std::size_t l = layers; l-- > 0;) {
    const Activation act =
        l + 1 == layers ? net.output_activation() : net.hidden_activation();
    scale_by_activation_grad_rows(act, *acts_[l + 1], *g, s.row_begin, s.rows);
    Matrix* gx = l > 0 ? grad_slabs_[l] : nullptr;
    const Matrix& in = l == 0 ? *input_ : *acts_[l];
    auto grad_slice =
        net.gradients().subspan(net.layer_offset(l), net.layer_param_count(l));
    dense_backward_slice(net.layer_parameters(l), dims[l], dims[l + 1], in,
                         l == 0 ? input_row0_ : 0, *g, grad_slice, gx, s);
    g = gx;
  }
}

const Matrix& FusedMlp::forward(std::span<Mlp* const> nets,
                                std::span<const FusedSlice> slices,
                                const Matrix& x, std::size_t src_row0) {
  begin_forward(nets, slices, x, src_row0);
  util::ThreadPool::global().parallel_for(0, nets.size(), [&](std::size_t i) {
    forward_member(*nets[i], slices[i]);
  });
  return *acts_.back();
}

void FusedMlp::backward(std::span<Mlp* const> nets,
                        std::span<const FusedSlice> slices, Matrix& grad_out) {
  assert(input_ != nullptr && "backward() requires a preceding forward()");
  take_delta_slabs(*nets[0], grad_out.rows());
  util::ThreadPool::global().parallel_for(0, nets.size(), [&](std::size_t i) {
    backward_member(*nets[i], slices[i], grad_out);
  });
}

void FusedMlp::train_batch(std::span<Mlp* const> nets,
                           std::span<const FusedSlice> slices, const Matrix& x,
                           const Matrix& y, LossKind loss,
                           std::span<Optimizer* const> opts,
                           std::span<double> losses, std::size_t src_row0) {
  assert(opts.size() == nets.size() && losses.size() == nets.size());
  const std::size_t rows = begin_forward(nets, slices, x, src_row0);
  const Matrix& pred = *acts_.back();
  Matrix& grad = ws_.take(rows, pred.cols());
  take_delta_slabs(*nets[0], rows);
  // One task per member runs forward, loss, backward and step over its
  // own slice rows and its own bank: one pool barrier per batch, and the
  // same per-member sequence as forward() + backward() + step.
  util::ThreadPool::global().parallel_for(0, nets.size(), [&](std::size_t i) {
    const FusedSlice& s = slices[i];
    forward_member(*nets[i], s);
    losses[i] = loss_value_rows(loss, pred, s.row_begin, y,
                                src_row0 + s.row_begin, s.rows);
    loss_grad_rows(loss, pred, s.row_begin, y, src_row0 + s.row_begin, s.rows,
                   grad);
    nets[i]->zero_grad();
    backward_member(*nets[i], s, grad);
    opts[i]->step(nets[i]->parameters(), nets[i]->gradients());
    kernels::note_train_batch();
  });
  note_fused_batch(nets.size(), rows);
}

}  // namespace pfdrl::nn
