// Cross-home fused training batches (docs/fused_training.md).
//
// Every home trains the same forecaster/DQN architecture on the same
// window shapes, so a federation round is thousands of tiny per-home
// batches that leave the PR 5 strip-mined kernels starved. The fused
// layer gathers a group of homes' minibatches into one home-major slab —
// rows [home0's batch | home1's batch | ...] — and runs each home's slice
// through register-blocked kernels (nn::kernels::fused_* forward,
// nn::kernels::slab_* backward) against the home's own parameter bank,
// stepping the home's own optimizer state with the home's gradients.
//
// Because parameter banks stay per-home, the "one big matmul per gate"
// is block-diagonal: each home's row slice multiplies its own weights.
// The win is structural, not algebraic — one gather pass, 4-row register
// tiles that stream each weight row once per kernels::kRowBlock rows, and
// member-major scheduling: since members share no accumulators (own
// input rows, own parameter bank, own gradient span, own optimizer
// state), each member's entire forward/loss/backward/clip/step is one
// task fanned out across util::ThreadPool — each bank stays hot in cache
// for the whole sequence, and the pool's static chunking leaves every
// member's arithmetic untouched, so results are bitwise identical at any
// thread count.
//
// This is the only training path: a home that trains alone (a
// Forecaster::train call, a one-agent DQN learner) is a group of one.
//
// Determinism contract: a group of one is the per-home path. Every fused
// kernel keeps each output element a single accumulator walked in
// ascending term order whatever rows share its tile (see kernels.hpp),
// every nonlinearity runs over the member's own rows, and each member's
// loss/clip/optimizer step runs on its own rows, gradient span and
// optimizer. So a member's bits never depend on the rest of its group:
// an N-member batch equals N one-member batches bitwise (pinned by
// nn_fused_test for LSTM/GRU/MLP and rl_dqn_test for the DQN), and the
// gradient math itself is pinned by finite-difference checks on groups
// of one (nn_lstm_test, nn_gru_test, nn_dense_mlp_test).
//
// Memory: only the inputs are group-wide — the caller's slab, read at
// src_row0 + slice.row_begin. Every intermediate (activations, deltas,
// recurrent state) and the gradient span of a member step live in the
// running thread's nn::thread_scratch(), sized for that one member, so
// training scratch is bounded by threads x one member step, never by
// members or groups, and no network keeps a gradient buffer between
// steps. A thread's scratch keeps its capacity, so steady-state batches
// of a stable shape allocate nothing once each thread has run a member
// step (pinned by nn_fused_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"

namespace pfdrl::nn {

class GruRegressor;
class LstmRegressor;
class Mlp;

/// One member's row range inside a fused home-major slab. slices[i]
/// covers rows [row_begin, row_begin + rows) and belongs to nets[i].
struct FusedSlice {
  std::size_t row_begin = 0;
  std::size_t rows = 0;
};

// ---- Per-layer step functions ----------------------------------------
// One forward implementation per layer type. The fused trainers run them
// over each member's rows — member-local state as FusedSlice{0, rows},
// the slab input offset in x_row0 / in_row0; inference (Mlp::predict through
// dense_forward, LstmRegressor/GruRegressor::predict) runs them over all
// rows of its batch. Rows go through kernels::fused_gates_rows in blocks of
// kernels::kRowBlock; leftover rows take the per-row path. Both keep each
// output element one accumulator in the same term order, so a row's
// result never depends on its position in the batch.

/// Dense preactivation rows y[r] = b + x[in_row0 + r] * W for r in the
/// slice (no activation; params is [W|b]). Leftover rows use matvec1.
void dense_forward_slice(std::span<const double> params, std::size_t in,
                         std::size_t out, const Matrix& x, std::size_t in_row0,
                         Matrix& y, const FusedSlice& s);

/// One LSTM step (gate layout i | f | g | o) over the slice's rows: gate
/// preactivation, per-row nonlinearities, then c, tanh(c) and h. x rows
/// are read at x_row0 + r; the state matrices are indexed by r.
void lstm_step_slice(const double* pwx, const double* pwh, const double* pb,
                     std::size_t f, std::size_t h, const Matrix& x,
                     std::size_t x_row0, const Matrix& h_prev,
                     const Matrix& c_prev, Matrix& gates, Matrix& c,
                     Matrix& tanh_c, Matrix& hm, const FusedSlice& s);

/// One GRU step (gate layout z | r | candidate) over the slice's rows.
/// `coeff` rows [coeff_base, coeff_base + kernels::kRowBlock) are the
/// caller's private (r ⊙ h) scratch, h columns wide.
void gru_step_slice(const double* pwx, const double* pwh, const double* pb,
                    std::size_t f, std::size_t h, const Matrix& x,
                    std::size_t x_row0, const Matrix& h_prev, Matrix& gates,
                    Matrix& hm, Matrix& coeff, std::size_t coeff_base,
                    const FusedSlice& s);

/// Process-wide fused-batch telemetry (exported by the obs layer as
/// `nn.fused_homes` — high-water group members per fused batch — and
/// `nn.fused_batch_rows` — cumulative slab rows trained). One relaxed
/// atomic update per fused batch.
void note_fused_batch(std::size_t members, std::size_t rows) noexcept;
[[nodiscard]] std::uint64_t total_fused_batches() noexcept;
[[nodiscard]] std::uint64_t total_fused_rows() noexcept;
[[nodiscard]] std::uint64_t max_fused_members() noexcept;

/// Fused multi-home LSTM trainer. One train_batch call runs forward +
/// per-slice loss + BPTT + per-member clip and optimizer step for every
/// member as one pool task each — bitwise identical, per member, to a
/// one-member train_batch on slice i's rows alone.
class FusedLstm {
 public:
  /// xs[t] is the step-t slab and y the target slab; the batch covers
  /// rows [src_row0, src_row0 + total_rows) of both, where total_rows is
  /// the sum of slice rows. slices[] row_begins remain batch-local
  /// (slice 0 starts at 0); src_row0 lets the forecast layer keep one
  /// persistent epoch arena and train consecutive batches out of it
  /// without re-gathering. nets/slices/opts/losses are parallel arrays
  /// (losses receives each member's batch loss). All nets must share
  /// (F, H, O).
  void train_batch(std::span<LstmRegressor* const> nets,
                   std::span<const FusedSlice> slices,
                   std::span<const Matrix* const> xs, const Matrix& y,
                   LossKind loss, std::span<Optimizer* const> opts,
                   std::span<double> losses, double clip_norm = 5.0,
                   std::size_t src_row0 = 0);
};

/// Fused multi-home GRU trainer; same contract as FusedLstm.
class FusedGru {
 public:
  void train_batch(std::span<GruRegressor* const> nets,
                   std::span<const FusedSlice> slices,
                   std::span<const Matrix* const> xs, const Matrix& y,
                   LossKind loss, std::span<Optimizer* const> opts,
                   std::span<double> losses, double clip_norm = 5.0,
                   std::size_t src_row0 = 0);
};

/// Fused multi-home MLP trainer: per-home weight banks, one pool task per
/// member (mlp_forward, loss, mlp_backward, optimizer step). All nets
/// must share architecture (Mlp::same_architecture).
class FusedMlp {
 public:
  /// As with the recurrent trainers, src_row0 offsets the rows read from
  /// x / y (epoch-arena batches).
  void train_batch(std::span<Mlp* const> nets,
                   std::span<const FusedSlice> slices, const Matrix& x,
                   const Matrix& y, LossKind loss,
                   std::span<Optimizer* const> opts, std::span<double> losses,
                   std::size_t src_row0 = 0);
};

// ---- One member's MLP training pass ------------------------------------
// The member-level forward/backward pair every MLP trainer runs on: the
// fused MLP batch and the DQN learner (rl/fused.hpp), each member step on
// its thread's scratch.

/// Where mlp_forward left one member's activations: layer l's output is
/// slot first_slot + l of the workspace it ran on.
struct MlpTape {
  const Matrix* x = nullptr;  // the input, read at rows [x_row0, +rows)
  std::size_t x_row0 = 0;
  std::size_t rows = 0;
  std::size_t first_slot = 0;
  const Matrix* out = nullptr;  // the output rows [0, rows)
};

/// Forward of `net` over rows [x_row0, x_row0 + rows) of x: takes one
/// rows x width slot per layer from ws, in layer order (zero rows takes
/// the slots and computes nothing). Bitwise Mlp::predict on those rows.
MlpTape mlp_forward(const Mlp& net, const Matrix& x, std::size_t x_row0,
                    std::size_t rows, Workspace& ws);

/// Backward of the tape's pass, on the workspace mlp_forward ran on with
/// no reset() between: grad_out (rows x output, dL/d output) is scaled
/// in place into the output delta, dL/dparams accumulates into `grads`
/// (parameter_count() doubles, zeroed by the caller), and the hidden
/// deltas take num_layers() - 1 slots from ws.
void mlp_backward(const Mlp& net, const MlpTape& tape, Matrix& grad_out,
                  std::span<double> grads, Workspace& ws);

}  // namespace pfdrl::nn
