#include "rl/replay.hpp"

#include <cassert>
#include <stdexcept>

namespace pfdrl::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("ReplayBuffer: capacity 0");
}

std::size_t ReplayBuffer::push(Transition t) {
  const std::size_t slot = next_;
  if (storage_.size() < capacity_) {
    storage_.push_back(std::move(t));
  } else {
    storage_[slot] = std::move(t);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_pushed_;
  return slot;
}

std::vector<const Transition*> ReplayBuffer::sample(std::size_t batch,
                                                    util::Rng& rng) const {
  std::vector<const Transition*> out;
  sample_into(batch, rng, out);
  return out;
}

void ReplayBuffer::sample_into(std::size_t batch, util::Rng& rng,
                               std::vector<const Transition*>& out,
                               std::vector<std::size_t>* slots) const {
  if (empty()) throw std::logic_error("ReplayBuffer: sample from empty");
  out.clear();
  out.reserve(batch);
  if (slots != nullptr) {
    slots->clear();
    slots->reserve(batch);
  }
  for (std::size_t i = 0; i < batch; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size()) - 1));
    out.push_back(&storage_[idx]);
    if (slots != nullptr) slots->push_back(idx);
  }
}

ReplayBufferState ReplayBuffer::capture_state() const {
  ReplayBufferState state;
  state.entries = storage_;
  state.next = next_;
  state.total_pushed = total_pushed_;
  return state;
}

void ReplayBuffer::restore_state(const ReplayBufferState& state) {
  if (state.entries.size() > capacity_) {
    throw std::invalid_argument("ReplayBuffer: snapshot exceeds capacity");
  }
  // The write cursor must point at a valid slot: the first free slot
  // while filling, any populated slot once the ring has wrapped.
  const bool full = state.entries.size() == capacity_;
  if ((full && state.next >= capacity_) ||
      (!full && state.next != state.entries.size())) {
    throw std::invalid_argument("ReplayBuffer: inconsistent snapshot cursor");
  }
  storage_ = state.entries;
  next_ = state.next;
  total_pushed_ = state.total_pushed;
}

void ReplayBuffer::clear() noexcept {
  storage_.clear();
  next_ = 0;
  // A cleared buffer restarts its telemetry too: leaving the cumulative
  // counter running would double-count pushes across clears.
  total_pushed_ = 0;
}

}  // namespace pfdrl::rl
