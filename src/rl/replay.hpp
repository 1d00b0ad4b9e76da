// Fixed-capacity experience replay (the paper sets memory capacity 2000).
// Ring-buffer overwrite semantics; uniform sampling with replacement.
// Storage grows with the pushes until it reaches capacity and then
// overwrites at the cursor, so a buffer never holds more slots than it
// has filled (a city of agents would otherwise pay for 2000 empty
// transitions each).
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace pfdrl::rl {

struct Transition {
  std::vector<double> state;
  int action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool terminal = false;
};

/// Snapshot of a ReplayBuffer for warm-restart persistence. `entries`
/// holds the populated slots in *storage* order (index 0 of the ring
/// array first), so restoring reproduces not just the contents but the
/// exact overwrite position — sample() index draws land on identical
/// transitions afterwards.
struct ReplayBufferState {
  std::vector<Transition> entries;
  std::size_t next = 0;
  std::uint64_t total_pushed = 0;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] bool empty() const noexcept { return storage_.empty(); }

  /// Insert; overwrites the oldest entry once full. Returns the slot
  /// written (the index sample_into reports for it).
  std::size_t push(Transition t);

  /// Uniform sample with replacement. Requires a non-empty buffer.
  [[nodiscard]] std::vector<const Transition*> sample(std::size_t batch,
                                                      util::Rng& rng) const;

  /// Allocation-free variant of sample(): draws into `out` (cleared and
  /// refilled; capacity is reused across calls). Consumes the identical
  /// RNG sequence as sample() for the same inputs. When `slots` is
  /// non-null it receives the slot index of each drawn transition.
  void sample_into(std::size_t batch, util::Rng& rng,
                   std::vector<const Transition*>& out,
                   std::vector<std::size_t>* slots = nullptr) const;

  /// Drop every stored transition (and the telemetry counter).
  void clear() noexcept;

  /// Deep-copy snapshot of the ring (contents, write cursor, telemetry).
  [[nodiscard]] ReplayBufferState capture_state() const;
  /// Restore a snapshot into this buffer. The snapshot must fit the
  /// buffer's capacity and carry a consistent cursor; throws
  /// std::invalid_argument otherwise.
  void restore_state(const ReplayBufferState& state);

  /// Total transitions ever pushed (diagnostics).
  [[nodiscard]] std::uint64_t total_pushed() const noexcept {
    return total_pushed_;
  }

 private:
  std::size_t capacity_;
  std::vector<Transition> storage_;
  std::size_t next_ = 0;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace pfdrl::rl
