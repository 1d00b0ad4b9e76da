// Reusable scratch arena for the inference hot path.
//
// A Workspace is a bump-allocated pool of Matrix slots: reset() rewinds
// the slot cursor to zero and take(rows, cols) hands out the next slot
// reshaped to the requested geometry. Slots keep their heap buffers
// across reset(), so a steady-state caller that issues the same sequence
// of take() shapes every iteration performs **zero heap allocations**
// after the first (warm-up) pass — which is exactly what the per-decision
// DQN forward pass needs (millions of batch-1 predictions per simulated
// neighbourhood, see docs/performance.md).
//
// Contract:
//   * Ownership — the workspace owns every slot; references returned by
//     take() stay valid until the Workspace is destroyed (slots live
//     behind unique_ptr, so pool growth never moves them). Their
//     *contents* are only meaningful until the next reset()/take() cycle
//     reuses the slot.
//   * Growth — a slot grows geometrically (std::vector) and never
//     shrinks; shrinking reshapes reuse the existing capacity.
//   * Thread affinity — a Workspace is single-threaded state, exactly
//     like util::Rng: give each agent/forecaster its own instance and
//     never share one across concurrent callers. thread_scratch() is the
//     one instance per thread that every training member step runs on.
//   * Contents of a fresh take() are unspecified (possibly stale); every
//     kernel that writes into a slot must fully overwrite it.
//
// Process-wide telemetry: every slot-buffer growth bumps an atomic
// allocation counter and a bytes-held total, exported by the obs layer
// as `nn.workspace_allocs` / `nn.scratch_bytes` (same pattern as
// `exchange.payload_copies`). Tests pin the steady-state act path to
// zero growths via these counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/matrix.hpp"

namespace pfdrl::nn {

class Workspace {
 public:
  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Rewind the slot cursor; buffers (and their capacity) are kept.
  void reset() noexcept { next_ = 0; }

  /// Next scratch matrix, reshaped to rows x cols. Contents unspecified.
  Matrix& take(std::size_t rows, std::size_t cols);

  /// Flat scratch span of n doubles (a 1 x n slot's row).
  std::span<double> take_span(std::size_t n) { return take(1, n).row(0); }

  /// Index of the slot the next take() hands out.
  [[nodiscard]] std::size_t cursor() const noexcept { return next_; }
  /// Slot i of the current cycle (i < cursor()), as take() returned it —
  /// how a backward pass finds the activations its forward pass took.
  [[nodiscard]] Matrix& slot(std::size_t i) noexcept { return *slots_[i]; }

  /// Heap bytes currently held by this workspace's slots.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  /// Number of pooled slots (high-water mark of takes per cycle).
  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }

  /// Process-wide number of slot-buffer growths across all workspaces —
  /// steady state adds zero (the acceptance criterion for the
  /// allocation-free act path).
  [[nodiscard]] static std::uint64_t total_allocations() noexcept;
  /// Process-wide bytes currently held by live workspaces.
  [[nodiscard]] static std::uint64_t total_bytes() noexcept;

 private:
  std::vector<std::unique_ptr<Matrix>> slots_;
  std::size_t next_ = 0;
  std::size_t bytes_ = 0;
};

/// The calling thread's training scratch. Every training member step
/// (nn::FusedLstm/FusedGru/FusedMlp::train_batch, rl::FusedDqnLearner)
/// resets it and takes its intermediates and its gradient span from it.
/// A member step starts no parallel_for, so a thread never holds two of
/// them at once: the process holds at most one member step's scratch per
/// thread that has trained, whatever the group sizes.
Workspace& thread_scratch();

}  // namespace pfdrl::nn
