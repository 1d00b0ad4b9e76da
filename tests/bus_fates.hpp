// Test helper: bill one broadcast the way the exchange engine reads it —
// the fate of every delivery along the topology, folded into the bus
// under one lock. Nothing is queued; the fates are the deliveries.
#pragma once

#include <utility>
#include <vector>

#include "net/bus.hpp"

namespace pfdrl::net::testing {

/// (receiver, fate) per out-neighbour of msg.sender, in topology order.
inline std::vector<std::pair<AgentId, Fate>> broadcast(MessageBus& bus,
                                                       const Message& msg) {
  BusStats ledger;
  ledger.messages_sent = 1;
  std::vector<std::pair<AgentId, Fate>> out;
  bus.topology().for_each_neighbor(msg.sender, [&](AgentId to) {
    const Fate fate = bus.fate(msg, to);
    ledger.add(fate, msg.wire_bytes());
    out.emplace_back(to, fate);
  });
  bus.bill(ledger);
  return out;
}

/// The fate msg.sender -> `to` had in that broadcast (copies 0 if `to`
/// is not an out-neighbour).
inline Fate fate_at(const std::vector<std::pair<AgentId, Fate>>& fates,
                    AgentId to) {
  for (const auto& [receiver, fate] : fates) {
    if (receiver == to) return fate;
  }
  return {};
}

}  // namespace pfdrl::net::testing
