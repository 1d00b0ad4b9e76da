#include "net/bus.hpp"

#include <stdexcept>

namespace pfdrl::net {

namespace {
// Legacy constant fault seed, used when FaultPlan::seed is 0 so that
// directly constructed buses (tests, micro-benches) stay reproducible
// without an experiment seed. Experiment-owned buses derive a per-bus
// seed with derive_fault_seed() instead.
constexpr std::uint64_t kLegacyFaultSeed = 0xD20BULL;

}  // namespace

MessageBus::MessageBus(Topology topology, FaultPlan fault)
    : topology_(std::move(topology)),
      fault_(std::move(fault)),
      fault_seed_(fault_.seed != 0 ? fault_.seed : kLegacyFaultSeed),
      hashed_(fault_.link.drop_probability > 0.0 || fault_.jitter_s > 0.0 ||
              fault_.duplicate_probability > 0.0),
      backlog_(new std::atomic<std::uint64_t>[topology_.num_agents()]) {
  for (std::size_t a = 0; a < topology_.num_agents(); ++a) {
    backlog_[a].store(0, std::memory_order_relaxed);
  }
}

void MessageBus::bill(const BusStats& ledger) {
  std::lock_guard lock(stats_mutex_);
  stats_ += ledger;
}

void MessageBus::add_backlog(AgentId agent, std::uint64_t copies) {
  if (agent >= num_agents()) throw std::out_of_range("bus: bad agent id");
  backlog_[agent].fetch_add(copies, std::memory_order_relaxed);
}

std::uint64_t MessageBus::take_backlog(AgentId agent) {
  if (agent >= num_agents()) throw std::out_of_range("bus: bad agent id");
  return backlog_[agent].exchange(0, std::memory_order_relaxed);
}

std::uint64_t MessageBus::backlog(AgentId agent) const {
  if (agent >= num_agents()) throw std::out_of_range("bus: bad agent id");
  return backlog_[agent].load(std::memory_order_relaxed);
}

BusStats MessageBus::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void MessageBus::reset_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_ = BusStats{};
}

void MessageBus::restore_stats(const BusStats& stats) {
  std::lock_guard lock(stats_mutex_);
  stats_ = stats;
}

}  // namespace pfdrl::net
