// net::MessageBus: a delivery's fate is a pure function of the delivery,
// billed per delivered copy into the bus ledger.
#include "net/bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "bus_fates.hpp"

namespace pfdrl::net {
namespace {

using testing::broadcast;

Message make_msg(AgentId sender, std::uint32_t type = 0,
                 std::size_t payload = 4) {
  Message m;
  m.sender = sender;
  m.device_type = type;
  m.payload.assign(payload, static_cast<double>(sender));
  return m;
}

std::vector<AgentId> receivers(
    const std::vector<std::pair<AgentId, Fate>>& fates) {
  std::vector<AgentId> out;
  for (const auto& [to, fate] : fates) {
    if (fate.copies > 0) out.push_back(to);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Bus, BroadcastReachesAllOthers) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 4));
  const auto fates = broadcast(bus, make_msg(1));
  EXPECT_EQ(fates.size(), 3u);
  // Not delivered to self; once to everyone else.
  EXPECT_EQ(receivers(fates), (std::vector<AgentId>{0, 2, 3}));
  for (const auto& [to, fate] : fates) EXPECT_EQ(fate.copies, 1u);
}

TEST(Bus, BadAgentIdThrows) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  EXPECT_THROW((void)bus.fate(make_msg(0), 5), std::out_of_range);
  EXPECT_THROW((void)bus.backlog(9), std::out_of_range);
  EXPECT_THROW(bus.add_backlog(2, 1), std::out_of_range);
}

TEST(Bus, StatsAccounting) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 3));
  const Message m = make_msg(0, 0, 10);
  broadcast(bus, m);
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 2u);
  EXPECT_EQ(stats.bytes_on_wire, 2 * m.wire_bytes());
  EXPECT_GT(stats.simulated_transfer_seconds, 0.0);
}

TEST(Bus, ResetStats) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  broadcast(bus, make_msg(0));
  bus.reset_stats();
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_sent, 0u);
  EXPECT_EQ(stats.bytes_on_wire, 0u);
}

TEST(Bus, LinkModelTransferTime) {
  LinkModel link;
  link.bytes_per_second = 1000.0;
  link.base_latency_s = 0.5;
  EXPECT_DOUBLE_EQ(link.transfer_seconds(2000), 0.5 + 2.0);
  // A clean delivery arrives one transfer after the sender's stamp.
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2), link);
  const Message m = make_msg(0, 0, 250);  // 2,025 bytes on the wire
  const Fate fate = bus.fate(m, 1);
  EXPECT_EQ(fate.copies, 1u);
  EXPECT_DOUBLE_EQ(fate.transfer_s, link.transfer_seconds(m.wire_bytes()));
  EXPECT_DOUBLE_EQ(fate.arrival_s, 0.5 + 2.025);
}

TEST(Bus, StarTopologyDelivery) {
  MessageBus bus(Topology(TopologyKind::kStar, 4));
  // Leaf -> hub only.
  EXPECT_EQ(receivers(broadcast(bus, make_msg(2))), (std::vector<AgentId>{0}));
  // Hub -> all leaves.
  EXPECT_EQ(receivers(broadcast(bus, make_msg(0))),
            (std::vector<AgentId>{1, 2, 3}));
}

TEST(Bus, CrashBacklogAccumulatesUntilTaken) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 3));
  EXPECT_EQ(bus.backlog(1), 0u);
  bus.add_backlog(1, 2);
  bus.add_backlog(1, 1);
  EXPECT_EQ(bus.backlog(1), 3u);
  EXPECT_EQ(bus.backlog(2), 0u);
  EXPECT_EQ(bus.take_backlog(1), 3u);
  EXPECT_EQ(bus.backlog(1), 0u);
}

// A delivery's fate is a pure function of the delivery: one round's
// deliveries evaluated in two different orders are dropped, delayed and
// duplicated identically, delivery by delivery.
TEST(Bus, FaultFateIndependentOfDeliveryOrder) {
  constexpr std::size_t kAgents = 6;
  FaultPlan plan;
  plan.link.drop_probability = 0.3;
  plan.jitter_s = 0.01;
  plan.duplicate_probability = 0.3;
  plan.seed = 9;
  // (sender, receiver) -> sorted arrival times of the copies received.
  using Fates = std::map<std::pair<AgentId, AgentId>, std::vector<double>>;
  const auto run = [&](bool reversed) {
    MessageBus bus(Topology(TopologyKind::kFullMesh, kAgents), plan);
    Fates fates;
    for (std::size_t k = 0; k < kAgents; ++k) {
      const auto sender =
          static_cast<AgentId>(reversed ? kAgents - 1 - k : k);
      Message msg = make_msg(sender, /*type=*/3);
      msg.round = 7;
      for (const auto& [to, fate] : broadcast(bus, msg)) {
        for (std::uint32_t c = 0; c < fate.copies; ++c) {
          fates[{sender, to}].push_back(fate.arrival(c));
        }
      }
    }
    for (auto& [link, arrivals] : fates) {
      std::sort(arrivals.begin(), arrivals.end());
    }
    return std::make_pair(fates, bus.stats());
  };
  const auto [forward, forward_stats] = run(false);
  const auto [backward, backward_stats] = run(true);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward_stats.messages_dropped, backward_stats.messages_dropped);
  EXPECT_EQ(forward_stats.messages_duplicated,
            backward_stats.messages_duplicated);
  // Summed in delivery order, so equal up to rounding.
  EXPECT_DOUBLE_EQ(forward_stats.simulated_fault_delay_seconds,
                   backward_stats.simulated_fault_delay_seconds);
  // The plan engaged every fault kind at least once.
  EXPECT_GT(forward_stats.messages_dropped, 0u);
  EXPECT_GT(forward_stats.messages_duplicated, 0u);
  EXPECT_LT(forward.size(), kAgents * (kAgents - 1));
}

}  // namespace
}  // namespace pfdrl::net
