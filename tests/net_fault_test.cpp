// net::FaultPlan unit tests: spec parsers, per-bus seed derivation and
// stream decorrelation, duplicate billing, injected-delay arrival math
// and partition windows, read through net::MessageBus::fate.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bus_fates.hpp"
#include "net/bus.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"

namespace pfdrl::net {
namespace {

using testing::broadcast;
using testing::fate_at;

TEST(FaultPlanParse, FullSpecRoundTrips) {
  const auto plan = parse_fault_plan(
      "drop=0.2,delay=0.01,jitter=0.005,dup=0.02,bw=1e6,"
      "latency=0.003,seed=99");
  EXPECT_DOUBLE_EQ(plan.link.drop_probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.delay_s, 0.01);
  EXPECT_DOUBLE_EQ(plan.jitter_s, 0.005);
  EXPECT_DOUBLE_EQ(plan.duplicate_probability, 0.02);
  EXPECT_DOUBLE_EQ(plan.link.bytes_per_second, 1e6);
  EXPECT_DOUBLE_EQ(plan.link.base_latency_s, 0.003);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_FALSE(plan.reliable());
}

TEST(FaultPlanParse, EmptySpecIsReliableDefault) {
  const auto plan = parse_fault_plan("");
  EXPECT_TRUE(plan.reliable());
  EXPECT_DOUBLE_EQ(plan.link.drop_probability, 0.0);
  EXPECT_EQ(plan.seed, 0u);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("drop"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("nope=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("drop=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("drop=1.0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("dup=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("delay=0.1x"), std::invalid_argument);
  // Nothing is queued, so there is no delivery order to permute.
  EXPECT_THROW(parse_fault_plan("reorder=1"), std::invalid_argument);
}

TEST(FaultPlanParse, WindowSpecs) {
  const auto w = parse_partition("3:7:0,2,5");
  EXPECT_EQ(w.from_round, 3u);
  EXPECT_EQ(w.until_round, 7u);
  EXPECT_EQ(w.group, (std::vector<AgentId>{0, 2, 5}));
  EXPECT_THROW(parse_partition("3:7"), std::invalid_argument);
  EXPECT_THROW(parse_partition("3:7:"), std::invalid_argument);

  const auto c = parse_crash("4:2:9");
  EXPECT_EQ(c.agent, 4u);
  EXPECT_EQ(c.from_round, 2u);
  EXPECT_EQ(c.until_round, 9u);
  EXPECT_THROW((void)parse_crash("4:2"), std::invalid_argument);

  const auto s = parse_straggler("3:0.25");
  EXPECT_EQ(s.agent, 3u);
  EXPECT_DOUBLE_EQ(s.compute_delay_s, 0.25);
  EXPECT_THROW((void)parse_straggler("3"), std::invalid_argument);
}

TEST(FaultSeed, DerivationIsDeterministicAndDecorrelated) {
  const auto a = derive_fault_seed(42, 1);
  EXPECT_EQ(a, derive_fault_seed(42, 1));
  EXPECT_NE(a, 0u);  // 0 is the "unset" sentinel
  EXPECT_NE(a, derive_fault_seed(42, 2));
  EXPECT_NE(a, derive_fault_seed(43, 1));
  EXPECT_NE(derive_fault_seed(0, 1), derive_fault_seed(0, 2));
}

// Broadcast `n` indexed messages over a 2-agent mesh and return the set
// of indices that survived the drop lottery at agent 1.
std::vector<int> delivered_mask(FaultPlan plan, int n) {
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2), std::move(plan));
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    Message msg;
    msg.sender = 0;
    msg.round = static_cast<std::uint64_t>(i);
    if (fate_at(broadcast(bus, msg), 1).copies > 0) out.push_back(i);
  }
  return out;
}

TEST(FaultSeed, DistinctBusStreamsProduceDistinctDropMasks) {
  FaultPlan plan;
  plan.link.drop_probability = 0.5;
  FaultPlan dfl = plan, drl = plan;
  dfl.seed = derive_fault_seed(7, 1);
  drl.seed = derive_fault_seed(7, 2);
  // Same seed => identical mask; sibling bus => different mask. 64 draws
  // at p=0.5 collide with probability 2^-64.
  EXPECT_EQ(delivered_mask(dfl, 64), delivered_mask(dfl, 64));
  EXPECT_NE(delivered_mask(dfl, 64), delivered_mask(drl, 64));
}

TEST(FaultBus, DuplicateDeliveriesBilledAndArriveTwice) {
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2), plan);
  Message msg;
  msg.sender = 0;
  msg.payload.assign(16, 1.0);
  const std::size_t bytes = msg.wire_bytes();
  const Fate fate = fate_at(broadcast(bus, msg), 1);
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 2u);
  EXPECT_EQ(stats.messages_duplicated, 1u);
  EXPECT_EQ(stats.bytes_on_wire, 2 * bytes);  // the retransmission is billed
  ASSERT_EQ(fate.copies, 2u);
  // The copy is a retransmission: one extra transfer later.
  const double transfer = bus.fault_plan().link.transfer_seconds(bytes);
  EXPECT_DOUBLE_EQ(fate.arrival(0), transfer);
  EXPECT_DOUBLE_EQ(fate.arrival(1), 2 * transfer);
}

TEST(FaultBus, InjectedDelayAccumulatesIntoArrival) {
  FaultPlan plan;
  plan.delay_s = 0.5;
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2), plan);
  Message msg;
  msg.sender = 0;
  msg.arrival_s = 0.25;  // sender-side compute delay (straggler model)
  msg.payload.assign(4, 1.0);
  const double transfer = plan.link.transfer_seconds(msg.wire_bytes());
  const Fate fate = fate_at(broadcast(bus, msg), 1);
  ASSERT_EQ(fate.copies, 1u);
  EXPECT_DOUBLE_EQ(fate.arrival_s, 0.25 + transfer + 0.5);
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_delayed, 1u);
  EXPECT_DOUBLE_EQ(stats.simulated_fault_delay_seconds, 0.5);
}

TEST(FaultBus, JitterStaysWithinBound) {
  FaultPlan plan;
  plan.jitter_s = 0.1;
  plan.seed = 5;
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2), plan);
  Message msg;
  msg.sender = 0;
  const double transfer = plan.link.transfer_seconds(msg.wire_bytes());
  for (int i = 0; i < 50; ++i) {
    const Fate fate = fate_at(broadcast(bus, msg), 1);
    EXPECT_GE(fate.arrival_s, transfer);
    EXPECT_LT(fate.arrival_s, transfer + 0.1);
  }
  EXPECT_EQ(bus.stats().messages_delayed, 50u);
}

TEST(FaultBus, PartitionWindowCutsCrossGroupTraffic) {
  FaultPlan plan;
  PartitionWindow w;
  w.from_round = 2;
  w.until_round = 4;
  w.group = {0};
  plan.partitions.push_back(w);
  MessageBus bus(Topology(TopologyKind::kFullMesh, 2), plan);
  Message msg;
  msg.sender = 0;
  std::vector<std::uint64_t> delivered;
  for (std::uint64_t round : {0, 2, 3, 4}) {
    msg.round = round;
    const Fate fate = fate_at(broadcast(bus, msg), 1);
    if (fate.copies > 0) delivered.push_back(round);
    EXPECT_EQ(fate.partitioned, fate.copies == 0);
  }
  // Rounds 0 and 4 pass; 2 and 3 are cut.
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 4}));
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_dropped, 2u);
  EXPECT_EQ(stats.messages_partition_dropped, 2u);
}

TEST(FaultBus, PartitionLeavesIntraGroupTraffic) {
  FaultPlan plan;
  PartitionWindow w;
  w.from_round = 0;
  w.until_round = 10;
  w.group = {0, 1};
  plan.partitions.push_back(w);
  MessageBus bus(Topology(TopologyKind::kFullMesh, 3), plan);
  Message msg;
  msg.sender = 0;
  const auto fates = broadcast(bus, msg);
  EXPECT_EQ(fate_at(fates, 1).copies, 1u);  // same side of the split
  EXPECT_EQ(fate_at(fates, 2).copies, 0u);  // severed
  EXPECT_EQ(bus.stats().messages_partition_dropped, 1u);
}

}  // namespace
}  // namespace pfdrl::net
