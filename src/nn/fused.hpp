// Cross-home fused training batches (docs/fused_training.md).
//
// Every home trains the same forecaster/DQN architecture on the same
// window shapes, so a federation round is thousands of tiny per-home
// batches that leave the PR 5 strip-mined kernels starved. The fused
// layer gathers a group of homes' minibatches into one home-major slab —
// rows [home0's batch | home1's batch | ...] — and runs the whole slab
// through register-blocked kernels (nn::kernels::fused_* forward,
// nn::kernels::slab_* backward), slice by slice against each home's own
// parameter bank, then scatters per-home gradient slices back into each
// home's own optimizer state.
//
// Because parameter banks stay per-home, the "one big matmul per gate"
// is block-diagonal: each home's row slice multiplies its own weights.
// The win is structural, not algebraic — one assembly pass, one scratch
// arena, 4-row register tiles that stream each weight row once per
// kernels::kRowBlock rows, and member-major scheduling: since members
// share no accumulators (disjoint slab row slices, own parameter bank,
// own gradient buffer, own optimizer state), each member's entire
// forward/loss/backward/step becomes one task fanned out across
// util::ThreadPool — each bank stays hot in cache for the whole
// sequence, and the pool's static chunking leaves every member's
// arithmetic untouched, so results are bitwise identical at any thread
// count.
//
// This is the only training path: a home that trains alone (a
// Forecaster::train call, a one-agent DQN learner) is a group of one.
//
// Determinism contract: a group of one is the per-home path. Every fused
// kernel keeps each output element a single accumulator walked in
// ascending term order whatever rows share its tile (see kernels.hpp),
// every nonlinearity runs over the member's own rows, and each member's
// loss/clip/optimizer step runs on its own slice, gradient bank and
// optimizer. So a member's bits never depend on the rest of its group:
// an N-member batch equals N one-member batches bitwise (pinned by
// nn_fused_test for LSTM/GRU/MLP and rl_dqn_test for the DQN), and the
// gradient math itself is pinned by finite-difference checks on groups
// of one (nn_lstm_test, nn_gru_test, nn_dense_mlp_test).
//
// All scratch lives in nn::Workspace slots (and capacity-reusing member
// buffers), so steady-state fused batches of a stable shape perform no
// heap allocation — the same zero-churn contract as the PR 4/5 paths,
// pinned by the fused zero-alloc test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
// over each member's slice; inference (Mlp::predict through
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
/// member over the shared slab — bitwise identical, per member, to a
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

  /// Heap bytes of scratch held between batches (arena + gradient arena).
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return ws_.bytes() + grads_.capacity() * sizeof(double);
  }

 private:
  Workspace ws_;
  // Per-step slab pointers into ws_ (stable addresses; rebuilt per batch).
  std::vector<Matrix*> gates_, c_, tanh_c_, h_;
  // Per-member gradient arena (member count x parameter count), zeroed
  // per batch with capacity reuse.
  std::vector<double> grads_;
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

  /// Heap bytes of scratch held between batches (arena + gradient arena).
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return ws_.bytes() + grads_.capacity() * sizeof(double);
  }

 private:
  Workspace ws_;
  std::vector<Matrix*> gates_, h_;
  std::vector<double> grads_;
};

/// Fused multi-home MLP: shared activation slabs, per-home weight banks.
/// forward() caches slab activations for backward(); backward()
/// accumulates each member's gradients into that member's own
/// Mlp::gradients() buffer (callers zero_grad before and step after, per
/// member, as train_batch does). All nets must share architecture
/// (Mlp::same_architecture).
class FusedMlp {
 public:
  /// As with the recurrent trainers, src_row0 offsets the rows read from
  /// x / y (epoch-arena batches); the returned prediction slab and
  /// grad_out stay batch-local (rows [0, total_rows)).
  const Matrix& forward(std::span<Mlp* const> nets,
                        std::span<const FusedSlice> slices, const Matrix& x,
                        std::size_t src_row0 = 0);
  void backward(std::span<Mlp* const> nets, std::span<const FusedSlice> slices,
                Matrix& grad_out);
  /// Forward + per-slice loss + backward + per-member optimizer step, as
  /// one pool task per member (a single barrier per batch).
  void train_batch(std::span<Mlp* const> nets,
                   std::span<const FusedSlice> slices, const Matrix& x,
                   const Matrix& y, LossKind loss,
                   std::span<Optimizer* const> opts, std::span<double> losses,
                   std::size_t src_row0 = 0);

  /// Heap bytes of the activation/gradient slab arena.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return ws_.bytes();
  }

 private:
  /// Validate the batch, reset the arena and take the activation slabs;
  /// returns the slab row count.
  std::size_t begin_forward(std::span<Mlp* const> nets,
                            std::span<const FusedSlice> slices,
                            const Matrix& x, std::size_t src_row0);
  /// Take the backward delta slabs (layers num_layers-1 .. 1).
  void take_delta_slabs(const Mlp& n0, std::size_t rows);
  void forward_member(const Mlp& net, const FusedSlice& s);
  void backward_member(Mlp& net, const FusedSlice& s, Matrix& grad_out);

  Workspace ws_;
  std::vector<Matrix*> acts_;  // acts_[i] = layer i output slab (1-based)
  std::vector<Matrix*> grad_slabs_;  // backward delta slab per layer (l >= 1)
  const Matrix* input_ = nullptr;
  std::size_t input_row0_ = 0;  // forward()'s src_row0, for backward()
};

}  // namespace pfdrl::nn
