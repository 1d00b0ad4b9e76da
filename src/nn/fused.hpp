// Member training steps (docs/fused_training.md).
//
// Every home trains its own networks on its own data. A training step of
// one member — one home's forecaster or one agent's Q-network — runs its
// forward, loss, backward, clip and optimizer step over that member's
// own batch rows, against its own parameter bank and optimizer state,
// through register-blocked kernels (nn::kernels::fused_* forward,
// nn::kernels::slab_* backward). Groups of homes exist only as a
// schedule: the forecast trainer (forecast/fused.hpp) and the EMS
// lockstep (core/pipeline.cpp) run one step per participating member as
// one util::ThreadPool task each, batch by batch.
//
// Determinism contract: a member step reads nothing but its own rows and
// state. Every kernel keeps each output element a single accumulator
// walked in ascending term order whatever rows share its tile (see
// kernels.hpp), and every nonlinearity, loss, clip and optimizer step
// runs over the member's own rows, gradient span and optimizer. So a
// member's bits depend neither on which thread runs it nor on which
// members train beside it (pinned by the trainer-level group tests in
// fl_trainer_test and core_pipeline_test), and the gradient math itself
// is pinned by finite-difference checks (nn_lstm_test, nn_gru_test,
// nn_dense_mlp_test).
//
// Memory: every intermediate (activations, deltas, recurrent state) and
// the gradient span of a step live in the running thread's
// nn::thread_scratch(), sized for that one member, so training scratch
// is bounded by threads x one member step, never by members or groups,
// and no network keeps a gradient buffer between steps. A step takes its
// slots after the ones its caller already holds (the caller may have
// copied the step's inputs into them) and rewinds the cursor to where it
// found it on return. A thread's scratch keeps its capacity, so
// steady-state steps of a stable shape allocate nothing once each thread
// has run one (pinned by nn_fused_test).
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

// ---- Per-layer step functions ----------------------------------------
// One forward implementation per layer type, run over rows [0, rows) of
// its operands by both training (the member steps below) and inference
// (Mlp::predict through dense_forward, LstmRegressor/GruRegressor::
// predict). Rows go through kernels::fused_gates_rows in blocks of
// kernels::kRowBlock; leftover rows take the per-row path. Both keep each
// output element one accumulator in the same term order, so a row's
// result never depends on its position in the batch.

/// Dense preactivation rows y[r] = b + x[r] * W for r < rows (no
/// activation; params is [W|b]). Leftover rows use matvec1.
void dense_forward_slice(std::span<const double> params, std::size_t in,
                         std::size_t out, const Matrix& x, Matrix& y,
                         std::size_t rows);

/// One LSTM step (gate layout i | f | g | o) over rows [0, rows): gate
/// preactivation, per-row nonlinearities, then c, tanh(c) and h.
void lstm_step_slice(const double* pwx, const double* pwh, const double* pb,
                     std::size_t f, std::size_t h, const Matrix& x,
                     const Matrix& h_prev, const Matrix& c_prev,
                     Matrix& gates, Matrix& c, Matrix& tanh_c, Matrix& hm,
                     std::size_t rows);

/// One GRU step (gate layout z | r | candidate) over rows [0, rows).
/// `coeff` is kernels::kRowBlock rows of the caller's private (r ⊙ h)
/// scratch, h columns wide.
void gru_step_slice(const double* pwx, const double* pwh, const double* pb,
                    std::size_t f, std::size_t h, const Matrix& x,
                    const Matrix& h_prev, Matrix& gates, Matrix& hm,
                    Matrix& coeff, std::size_t rows);

/// Process-wide group-batch telemetry (exported by the obs layer as
/// `nn.fused_batches`, `nn.fused_homes` — high-water members per group
/// batch — and `nn.fused_batch_rows` — cumulative member rows trained).
/// The group schedules note one group batch per forecast batch offset
/// and per EMS learn tick with at least one learning agent; one relaxed
/// atomic update each.
void note_fused_batch(std::size_t members, std::size_t rows) noexcept;
[[nodiscard]] std::uint64_t total_fused_batches() noexcept;
[[nodiscard]] std::uint64_t total_fused_rows() noexcept;
[[nodiscard]] std::uint64_t max_fused_members() noexcept;

// ---- Member train steps -----------------------------------------------
// One step per network type over one member's batch: xs[t] is the step-t
// input and y the targets, rows [0, y.rows()). Each runs forward, the
// mean loss over its rows, backward into a gradient span of its thread's
// scratch, the global-norm clip (recurrent nets, when clip_norm > 0) and
// opt.step(net.parameters(), gradients), bumps nn.kernel_train_batches
// and returns the batch loss.

double lstm_train_step(LstmRegressor& net, std::span<const Matrix* const> xs,
                       const Matrix& y, LossKind loss, Optimizer& opt,
                       double clip_norm = 5.0);
double gru_train_step(GruRegressor& net, std::span<const Matrix* const> xs,
                      const Matrix& y, LossKind loss, Optimizer& opt,
                      double clip_norm = 5.0);
/// Throws std::invalid_argument when x has fewer rows than y.
double mlp_train_step(Mlp& net, const Matrix& x, const Matrix& y,
                      LossKind loss, Optimizer& opt);

// ---- One member's MLP training pass ------------------------------------
// The forward/backward pair every MLP trainer runs on: mlp_train_step
// and the DQN learn step (rl::DqnAgent::learn), each on its thread's
// scratch.

/// Where mlp_forward left one member's activations: layer l's output is
/// slot first_slot + l of the workspace it ran on.
struct MlpTape {
  const Matrix* x = nullptr;  // the input, read at rows [0, rows)
  std::size_t rows = 0;
  std::size_t first_slot = 0;
  const Matrix* out = nullptr;  // the output rows [0, rows)
};

/// Forward of `net` over rows [0, rows) of x: takes one rows x width slot
/// per layer from ws, in layer order (zero rows takes the slots and
/// computes nothing). Bitwise Mlp::predict on those rows.
MlpTape mlp_forward(const Mlp& net, const Matrix& x, std::size_t rows,
                    Workspace& ws);

/// Backward of the tape's pass, on the workspace mlp_forward ran on with
/// no reset() between: grad_out (rows x output, dL/d output) is scaled
/// in place into the output delta, dL/dparams accumulates into `grads`
/// (parameter_count() doubles, zeroed by the caller), and the hidden
/// deltas take num_layers() - 1 slots from ws.
void mlp_backward(const Mlp& net, const MlpTape& tape, Matrix& grad_out,
                  std::span<double> grads, Workspace& ws);

}  // namespace pfdrl::nn
