// Composable fault-injection model for the simulated residential network.
//
// PFDRL is cloud-free: parameter exchange rides home links that drop,
// delay and duplicate traffic, and residences go dark or lag behind. A
// FaultPlan describes what the *links* of one bus do to every delivery
// (loss, fixed+jitter delay, duplication, scheduled partitions); a
// FailureSchedule describes what the *nodes* do (crash /
// restart windows and slow-node compute stragglers) and is consumed one
// layer up, by the fl::StagedExchange round (see docs/robustness.md for
// the full layering picture).
//
// Determinism: every fault decision is a stateless hash of the delivery
// (bus seed, round, sender, receiver, device type, attempt), keyed by
// FaultPlan::seed (net::MessageBus::fate). Callers that own an experiment seed derive the
// per-bus seed with derive_fault_seed(experiment_seed, bus_id), so the
// forecast bus and the DRL plan-exchange bus never replay the same drop
// mask (the old shared-constant-seed bug) while the whole run stays
// bitwise reproducible per seed — under any delivery order, shard count
// or pool size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"

namespace pfdrl::net {

struct LinkModel {
  /// Simulated bandwidth in bytes/second (default: 100 Mbit home LAN).
  double bytes_per_second = 12.5e6;
  /// Fixed per-message latency in seconds.
  double base_latency_s = 2e-3;
  /// Probability that a delivery is silently dropped (lossy Wi-Fi model;
  /// 0 = reliable). Receivers must tolerate missing contributions — the
  /// FedAvg layer already averages whatever arrives.
  double drop_probability = 0.0;

  [[nodiscard]] double transfer_seconds(std::size_t bytes) const noexcept {
    return base_latency_s + static_cast<double>(bytes) / bytes_per_second;
  }
};

/// Scheduled link partition: while active (round in [from_round,
/// until_round)), deliveries between a group member and a non-member are
/// dropped in both directions. Traffic within the group, and among the
/// non-members, is unaffected — the classic split-brain window.
struct PartitionWindow {
  std::uint64_t from_round = 0;   ///< inclusive
  std::uint64_t until_round = 0;  ///< exclusive
  std::vector<AgentId> group;

  [[nodiscard]] bool active(std::uint64_t round) const noexcept {
    return round >= from_round && round < until_round;
  }
  [[nodiscard]] bool contains(AgentId a) const noexcept;
  /// True if this window cuts the a<->b link during `round`.
  [[nodiscard]] bool severs(AgentId a, AgentId b,
                            std::uint64_t round) const noexcept;
};

/// Everything one bus's links do to traffic. Extends the plain LinkModel
/// (bandwidth / latency / loss) with delay+jitter, duplication and
/// scheduled partitions. Implicitly constructible from a
/// LinkModel so existing "just set a drop rate" call sites keep working.
struct FaultPlan {
  LinkModel link{};
  /// Fixed extra delivery delay in simulated seconds (on top of the
  /// link's transfer time).
  double delay_s = 0.0;
  /// Uniform extra delay in [0, jitter_s) per delivery.
  double jitter_s = 0.0;
  /// Probability that a delivered message arrives twice (the second
  /// copy is billed and arrives one transfer later — a retransmission).
  double duplicate_probability = 0.0;
  /// Scheduled split-brain windows, keyed by the message's round stamp.
  std::vector<PartitionWindow> partitions;
  /// Seed of this bus's fault hash. 0 selects the legacy constant seed;
  /// derive_fault_seed() gives each bus its own.
  std::uint64_t seed = 0;

  FaultPlan() = default;
  // NOLINTNEXTLINE(google-explicit-constructor) — a LinkModel is a plan.
  FaultPlan(LinkModel l) noexcept : link(l) {}

  /// True when every delivery arrives exactly once (no loss, duplication
  /// or partitions) — the precondition for secure aggregation, whose
  /// pairwise masks only cancel under full participation.
  [[nodiscard]] bool reliable() const noexcept {
    return link.drop_probability <= 0.0 && duplicate_probability <= 0.0 &&
           partitions.empty();
  }
  /// True if any partition window cuts a<->b during `round`.
  [[nodiscard]] bool severed(AgentId a, AgentId b,
                             std::uint64_t round) const noexcept;
};

/// Per-bus fault seed: hashes (experiment seed, bus id) so distinct
/// buses of one experiment draw independent drop/jitter masks while the
/// run stays deterministic per seed. Never returns 0 (the "unset"
/// sentinel).
[[nodiscard]] std::uint64_t derive_fault_seed(std::uint64_t experiment_seed,
                                              std::uint64_t bus_id) noexcept;

/// One residence going dark for a window of exchange rounds: while
/// crashed the agent neither broadcasts nor aggregates (what reaches it
/// piles up as its crash backlog, discarded as stale after restart). Local training is
/// unaffected — the home lost its uplink, not its compute.
struct CrashWindow {
  AgentId agent = 0;
  std::uint64_t from_round = 0;   ///< inclusive
  std::uint64_t until_round = 0;  ///< exclusive
};

/// A slow node: every broadcast it sends starts `compute_delay_s`
/// simulated seconds late, so with a round deadline its contributions
/// tend to miss the cut at every receiver.
struct StragglerSpec {
  AgentId agent = 0;
  double compute_delay_s = 0.0;
};

/// Per-residence failure schedule, consumed by fl::StagedExchange.
struct FailureSchedule {
  std::vector<CrashWindow> crashes;
  std::vector<StragglerSpec> stragglers;

  [[nodiscard]] bool empty() const noexcept {
    return crashes.empty() && stragglers.empty();
  }
  [[nodiscard]] bool crashed(AgentId agent, std::uint64_t round) const noexcept;
  [[nodiscard]] double compute_delay(AgentId agent) const noexcept;
};

/// Parse "key=value,..." fault specs, e.g.
///   "drop=0.2,delay=0.01,jitter=0.005,dup=0.02".
/// Keys: drop, delay, jitter, dup, bw (bytes/s), latency, seed.
/// Throws std::invalid_argument on unknown keys or malformed values.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// Parse "FROM:UNTIL:a,b,c" (round window + partition group agent ids).
[[nodiscard]] PartitionWindow parse_partition(const std::string& spec);

/// Parse "AGENT:FROM:UNTIL" (crash window in exchange rounds).
[[nodiscard]] CrashWindow parse_crash(const std::string& spec);

/// Parse "AGENT:DELAY_SECONDS".
[[nodiscard]] StragglerSpec parse_straggler(const std::string& spec);

}  // namespace pfdrl::net
