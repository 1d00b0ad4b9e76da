#include "nn/workspace.hpp"

#include <atomic>

namespace pfdrl::nn {

namespace {
// Process-wide growth telemetry. Relaxed atomics: the counters are read
// by the obs exporter between rounds, never used for synchronization.
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

Workspace::~Workspace() {
  g_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
}

Matrix& Workspace::take(std::size_t rows, std::size_t cols) {
  if (next_ == slots_.size()) {
    slots_.push_back(std::make_unique<Matrix>());
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  Matrix& m = *slots_[next_++];
  const std::size_t grown = m.reshape(rows, cols);
  if (grown > 0) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(grown, std::memory_order_relaxed);
    bytes_ += grown;
  }
  return m;
}

Workspace& thread_scratch() {
  thread_local Workspace ws;
  return ws;
}

std::uint64_t Workspace::total_allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t Workspace::total_bytes() noexcept {
  return g_bytes.load(std::memory_order_relaxed);
}

}  // namespace pfdrl::nn
