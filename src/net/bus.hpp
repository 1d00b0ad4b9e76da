// The simulated residential LAN the paper's agents broadcast over: a
// topology, the fault plan its links follow, and the bus-wide ledger of
// bytes, messages and per-link latency (virtual, accumulated into
// counters — the simulation clock, not wall time, pays for it).
//
// Nothing is queued. A delivery's fate — silent drop, a scheduled
// partition cut, fixed+jitter delay (stamped into the arrival time the
// deadline-based exchange rounds read), duplication — is a pure function
// of the delivery: a stateless hash of (bus seed, round, sender,
// receiver, device type, attempt). The exchange engine evaluates it once
// per delivery when the receiver reads the sender's entry on the round's
// board (fl::StagedExchange), so a delivery's fate does not depend on
// which deliveries came before it, runs are bitwise reproducible per
// seed under any schedule, and distinct buses never share a drop mask.
// Callers bill fates into a BusStats ledger of their own and fold it into
// the bus under one lock (MessageBus::bill). Node-level failures
// (crashes, stragglers) live one layer up, in fl::StagedExchange — see
// docs/robustness.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "net/fault.hpp"
#include "net/message.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"

namespace pfdrl::net {

/// What the links do to one delivery (MessageBus::fate).
struct Fate {
  /// Copies that reach the receiver: 0 when dropped or cut by a
  /// partition, 2 when duplicated, else 1.
  std::uint32_t copies = 0;
  /// Dropped by an active partition window (a subset of copies == 0).
  bool partitioned = false;
  /// Link transfer time of one copy.
  double transfer_s = 0.0;
  /// Injected fault delay (fixed + jitter); 0 when dropped.
  double delay_s = 0.0;
  /// Arrival of the first copy: the sender's stamp plus transfer and
  /// injected delay.
  double arrival_s = 0.0;

  /// Arrival of copy `k` (0 or 1): a duplicate is a retransmission, one
  /// transfer after the first copy.
  [[nodiscard]] double arrival(std::uint32_t k) const noexcept {
    return k == 0 ? arrival_s : arrival_s + transfer_s;
  }
};

struct BusStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// All failed deliveries (random loss + partition cuts).
  std::uint64_t messages_dropped = 0;
  /// Subset of messages_dropped caused by an active partition window.
  std::uint64_t messages_partition_dropped = 0;
  /// Deliveries that arrived twice by the duplication fault.
  std::uint64_t messages_duplicated = 0;
  /// Deliveries that received extra injected delay (delay_s/jitter_s).
  std::uint64_t messages_delayed = 0;
  /// Bytes billed at the link layer: Message::wire_bytes() (header plus
  /// raw payload) per delivered copy.
  std::uint64_t bytes_on_wire = 0;
  /// The same ledger under its older name; equal to bytes_on_wire by
  /// construction. Kept because the end-to-end benchmark
  /// (bench/e2e/workload.cpp) reads both fields.
  std::uint64_t logical_bytes = 0;
  /// Total simulated link-seconds consumed by transfers.
  double simulated_transfer_seconds = 0.0;
  /// Total injected fault delay (fixed + jitter), simulated seconds.
  double simulated_fault_delay_seconds = 0.0;

  /// Bill one delivery's fate; `bytes` is the message's wire_bytes().
  void add(const Fate& fate, std::size_t bytes) noexcept {
    if (fate.copies == 0) {
      ++messages_dropped;
      if (fate.partitioned) ++messages_partition_dropped;
      return;
    }
    const bool duplicated = fate.copies == 2;
    messages_delivered += fate.copies;
    bytes_on_wire += fate.copies * bytes;
    logical_bytes += fate.copies * bytes;
    simulated_transfer_seconds +=
        duplicated ? 2 * fate.transfer_s : fate.transfer_s;
    if (duplicated) ++messages_duplicated;
    if (fate.delay_s > 0.0) {
      ++messages_delayed;
      simulated_fault_delay_seconds += fate.delay_s;
    }
  }
  BusStats& operator+=(const BusStats& o) noexcept {
    messages_sent += o.messages_sent;
    messages_delivered += o.messages_delivered;
    messages_dropped += o.messages_dropped;
    messages_partition_dropped += o.messages_partition_dropped;
    messages_duplicated += o.messages_duplicated;
    messages_delayed += o.messages_delayed;
    bytes_on_wire += o.bytes_on_wire;
    logical_bytes += o.logical_bytes;
    simulated_transfer_seconds += o.simulated_transfer_seconds;
    simulated_fault_delay_seconds += o.simulated_fault_delay_seconds;
    return *this;
  }
};

namespace detail {
// One salt per fault decision, so a delivery's drop, jitter and
// duplicate draws are independent hashes of the same key.
inline constexpr std::uint64_t kDropSalt = 0x8CB92BA72F3D8DD7ULL;
inline constexpr std::uint64_t kJitterSalt = 0xC13FA9A902A6328FULL;
inline constexpr std::uint64_t kDuplicateSalt = 0x91E10DA5C79E7B1DULL;

// The delivery's fault key: (bus seed, round, sender, receiver, device
// type, attempt), chained through the splitmix finalizer. Within one
// round of a bus no two deliveries share a key — the exchange sends
// each (sender, device type) once per receiver and attempt, and the
// star hub relays each (sender, device type) once.
inline std::uint64_t delivery_key(std::uint64_t seed, const Message& msg,
                                  AgentId to) noexcept {
  std::uint64_t h = mix64(seed ^ msg.round);
  h = mix64(h ^ ((std::uint64_t{msg.sender} << 32) | to));
  return mix64(h ^ ((std::uint64_t{msg.device_type} << 32) | msg.attempt));
}

// The key's draw for one decision: 53 hashed bits -> uniform in [0, 1),
// the same mapping as util::Rng.
inline double draw(std::uint64_t key, std::uint64_t salt) noexcept {
  return static_cast<double>(mix64(key ^ salt) >> 11) * 0x1.0p-53;
}
}  // namespace detail

class MessageBus {
 public:
  /// `fault` describes everything this bus's links do to traffic; a bare
  /// LinkModel converts implicitly for loss-only call sites.
  MessageBus(Topology topology, FaultPlan fault = {});

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return fault_; }
  [[nodiscard]] std::size_t num_agents() const noexcept {
    return topology_.num_agents();
  }

  /// Attach a shard map and cross-shard traffic ledger (non-owning; may
  /// be nullptr to detach). The exchange engine runs one publish and one
  /// apply per shard of the attached router and bills its cross-shard
  /// traffic there. The router must outlive the bus or be detached first.
  void set_shard_router(ShardRouter* router) noexcept { router_ = router; }
  [[nodiscard]] ShardRouter* shard_router() const noexcept { return router_; }

  /// The fate of delivering `msg` to `to`: a pure function of the bus's
  /// fault seed and plan, the message's round, sender, device type,
  /// attempt and arrival stamp, its wire size, and `to`. Thread-safe;
  /// bills nothing. Throws std::out_of_range for a bad receiver. Inline:
  /// the exchange engine evaluates one per delivery.
  [[nodiscard]] Fate fate(const Message& msg, AgentId to) const {
    if (to >= num_agents()) throw std::out_of_range("bus: bad agent id");
    const LinkModel& link = fault_.link;
    const std::uint64_t key =
        hashed_ ? detail::delivery_key(fault_seed_, msg, to) : 0;
    Fate f;
    f.partitioned = !fault_.partitions.empty() &&
                    fault_.severed(msg.sender, to, msg.round);
    if (f.partitioned ||
        (link.drop_probability > 0.0 &&
         detail::draw(key, detail::kDropSalt) < link.drop_probability)) {
      return f;
    }
    f.delay_s = fault_.delay_s;
    if (fault_.jitter_s > 0.0) {
      f.delay_s += fault_.jitter_s * detail::draw(key, detail::kJitterSalt);
    }
    const bool duplicated =
        fault_.duplicate_probability > 0.0 &&
        detail::draw(key, detail::kDuplicateSalt) < fault_.duplicate_probability;
    f.copies = duplicated ? 2 : 1;
    f.transfer_s = link.transfer_seconds(msg.wire_bytes());
    f.arrival_s = msg.arrival_s + (f.transfer_s + f.delay_s);
    return f;
  }

  /// Fold a caller-accumulated ledger into the bus counters, under one
  /// lock. Thread-safe.
  void bill(const BusStats& ledger);

  /// Crash backlog: delivered copies that reached `agent` while it was
  /// inside a crash window and that it has not discarded yet. The
  /// exchange engine adds to it on the agent's crashed rounds and takes
  /// it, as exchange.stale_msgs, on its first live round; it lives here
  /// so that a crash window can span two exchange sessions. Lock-free;
  /// not part of a snapshot.
  void add_backlog(AgentId agent, std::uint64_t copies);
  [[nodiscard]] std::uint64_t take_backlog(AgentId agent);
  [[nodiscard]] std::uint64_t backlog(AgentId agent) const;

  [[nodiscard]] BusStats stats() const;
  void reset_stats();
  /// Restore accounting wholesale (warm-restart persistence). Fault
  /// draws carry no state, and a crash backlog is intentionally NOT part
  /// of a snapshot (docs/persistence.md).
  void restore_stats(const BusStats& stats);

 private:
  Topology topology_;
  FaultPlan fault_;
  /// FaultPlan::seed, or the legacy constant when the plan has none.
  std::uint64_t fault_seed_;
  /// True when some fault draw needs the delivery's hash (loss, jitter
  /// or duplication); a clean plan skips hashing altogether.
  bool hashed_;
  ShardRouter* router_ = nullptr;
  std::unique_ptr<std::atomic<std::uint64_t>[]> backlog_;
  mutable std::mutex stats_mutex_;
  BusStats stats_;
};

}  // namespace pfdrl::net
