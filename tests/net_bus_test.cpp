#include "net/bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <thread>
#include <utility>
#include <vector>

namespace pfdrl::net {
namespace {

Message make_msg(AgentId sender, std::uint32_t type = 0,
                 std::size_t payload = 4) {
  Message m;
  m.sender = sender;
  m.device_type = type;
  m.payload.assign(payload, static_cast<double>(sender));
  return m;
}

TEST(Bus, BroadcastReachesAllOthers) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 4));
  EXPECT_EQ(bus.broadcast(make_msg(1)), 3u);
  EXPECT_EQ(bus.inbox_size(0), 1u);
  EXPECT_EQ(bus.inbox_size(1), 0u);  // not delivered to self
  EXPECT_EQ(bus.inbox_size(2), 1u);
  EXPECT_EQ(bus.inbox_size(3), 1u);
}

TEST(Bus, TryReceiveEmpty) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  EXPECT_EQ(bus.try_receive(0), std::nullopt);
}

TEST(Bus, FifoOrder) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  for (std::uint32_t i = 0; i < 5; ++i) {
    Message m = make_msg(1, i);
    bus.broadcast(m);
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto m = bus.try_receive(0);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->device_type, i);
  }
}

TEST(Bus, DrainEmptiesInbox) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 3));
  bus.broadcast(make_msg(0));
  bus.broadcast(make_msg(2));
  const auto msgs = bus.drain(1);
  EXPECT_EQ(msgs.size(), 2u);
  EXPECT_EQ(bus.inbox_size(1), 0u);
}

TEST(Bus, SendPointToPoint) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 3));
  bus.send(2, make_msg(0));
  EXPECT_EQ(bus.inbox_size(2), 1u);
  EXPECT_EQ(bus.inbox_size(1), 0u);
}

TEST(Bus, BadAgentIdThrows) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  EXPECT_THROW(bus.send(5, make_msg(0)), std::out_of_range);
  EXPECT_THROW(bus.inbox_size(9), std::out_of_range);
}

TEST(Bus, StatsAccounting) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 3));
  const Message m = make_msg(0, 0, 10);
  bus.broadcast(m);
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 2u);
  EXPECT_EQ(stats.bytes_on_wire, 2 * m.wire_bytes());
  EXPECT_GT(stats.simulated_transfer_seconds, 0.0);
}

TEST(Bus, ResetStats) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  bus.broadcast(make_msg(0));
  bus.reset_stats();
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_sent, 0u);
  EXPECT_EQ(stats.bytes_on_wire, 0u);
}

TEST(Bus, ReceiveForTimesOut) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(bus.receive_for(0, 0.05), std::nullopt);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.04);
}

TEST(Bus, ReceiveForWakesOnDelivery) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2));
  std::thread producer([&bus] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bus.send(0, make_msg(1, 42));
  });
  const auto m = bus.receive_for(0, 2.0);
  producer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->device_type, 42u);
}

TEST(Bus, LinkModelTransferTime) {
  LinkModel link;
  link.bytes_per_second = 1000.0;
  link.base_latency_s = 0.5;
  EXPECT_DOUBLE_EQ(link.transfer_seconds(2000), 0.5 + 2.0);
}

TEST(Bus, ConcurrentProducersAllDelivered) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 4));
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (AgentId sender = 1; sender < 4; ++sender) {
    producers.emplace_back([&bus, sender] {
      for (int i = 0; i < kPerProducer; ++i) {
        bus.send(0, make_msg(sender, static_cast<std::uint32_t>(i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(bus.inbox_size(0), 3u * kPerProducer);
  const auto msgs = bus.drain(0);
  EXPECT_EQ(msgs.size(), 3u * kPerProducer);
  // Per-sender FIFO: each sender's messages arrive in order.
  std::array<std::uint32_t, 4> next{0, 0, 0, 0};
  for (const auto& m : msgs) {
    EXPECT_EQ(m.device_type, next[m.sender]);
    ++next[m.sender];
  }
}

TEST(Bus, StarTopologyDelivery) {
  MessageBus bus(Topology(TopologyKind::kStar, 4));
  bus.broadcast(make_msg(2));  // leaf -> hub only
  EXPECT_EQ(bus.inbox_size(0), 1u);
  EXPECT_EQ(bus.inbox_size(1), 0u);
  bus.broadcast(make_msg(0));  // hub -> all leaves
  EXPECT_EQ(bus.inbox_size(1), 1u);
  EXPECT_EQ(bus.inbox_size(2), 1u);
  EXPECT_EQ(bus.inbox_size(3), 1u);
}

// A delivery's fate is a pure function of the delivery: one round's
// deliveries sent in two different orders are dropped, delayed and
// duplicated identically, delivery by delivery.
TEST(Bus, FaultFateIndependentOfDeliveryOrder) {
  constexpr std::size_t kAgents = 6;
  FaultPlan plan;
  plan.link.drop_probability = 0.3;
  plan.jitter_s = 0.01;
  plan.duplicate_probability = 0.3;
  plan.reorder = true;
  plan.seed = 9;
  // (sender, receiver) -> sorted arrival times of the copies received.
  using Fates = std::map<std::pair<AgentId, AgentId>, std::vector<double>>;
  const auto run = [&](bool reversed) {
    MessageBus bus(Topology(TopologyKind::kFullMesh, kAgents), plan);
    for (std::size_t k = 0; k < kAgents; ++k) {
      const auto sender =
          static_cast<AgentId>(reversed ? kAgents - 1 - k : k);
      Message msg = make_msg(sender, /*type=*/3);
      msg.round = 7;
      bus.broadcast(msg);
    }
    Fates fates;
    for (AgentId to = 0; to < kAgents; ++to) {
      for (const Message& m : bus.drain(to)) {
        fates[{m.sender, to}].push_back(m.arrival_s);
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
