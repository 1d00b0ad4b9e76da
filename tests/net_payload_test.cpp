// Zero-copy payload accounting: a broadcast is one buffer that every
// receiver reads, while the simulated wire still bills every delivery
// for the full logical byte count — including under a lossy LinkModel.
#include <gtest/gtest.h>

#include <vector>

#include "bus_fates.hpp"
#include "net/bus.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"

namespace pfdrl::net {
namespace {

using testing::broadcast;

TEST(Payload, ConstructionCountsOneAllocation) {
  const auto before = Payload::allocations();
  Payload p(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(Payload::allocations() - before, 1u);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
  EXPECT_EQ(p.use_count(), 1);
}

TEST(Payload, CopiesShareTheBuffer) {
  Payload p(std::vector<double>(8, 1.5));
  const auto before = Payload::allocations();
  Payload q = p;          // handle copy
  Payload r = q;          // and another
  EXPECT_EQ(Payload::allocations(), before);  // no new buffers
  EXPECT_EQ(p.use_count(), 3);
  EXPECT_EQ(q.span().data(), p.span().data());
  EXPECT_EQ(r.span().data(), p.span().data());
}

TEST(Payload, AssignReplacesTheBuffer) {
  Payload p;
  EXPECT_TRUE(p.empty());
  p.assign(4, 2.0);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p[3], 2.0);
  const std::vector<double> src = {9.0, 8.0};
  p.assign(src.begin(), src.end());
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[0], 9.0);
}

TEST(Payload, BroadcastAllocatesNothingPerReceiver) {
  // Full mesh with many receivers: deciding the N-1 deliveries must not
  // allocate any payload buffer — only the sender's original
  // construction counts — nor take a handle: every receiver reads the
  // sender's one buffer.
  const std::size_t homes = 16;
  MessageBus bus(Topology(TopologyKind::kFullMesh, homes));
  Message msg;
  msg.sender = 0;
  msg.payload = std::vector<double>(1000, 1.0);
  const auto before = Payload::allocations();
  const auto fates = broadcast(bus, msg);
  EXPECT_EQ(fates.size(), homes - 1);
  for (const auto& [to, fate] : fates) EXPECT_EQ(fate.copies, 1u);
  EXPECT_EQ(Payload::allocations(), before);
  EXPECT_EQ(msg.payload.use_count(), 1);
}

TEST(Payload, WireBillsEveryDeliveryDespiteSharing) {
  const std::size_t homes = 8;
  MessageBus bus(Topology(TopologyKind::kFullMesh, homes));
  Message msg;
  msg.sender = 0;
  msg.payload = std::vector<double>(500, 0.25);
  broadcast(bus, msg);
  const auto stats = bus.stats();
  // bytes_on_wire counts logical per-delivery bytes: each of the N-1
  // receivers is billed the full serialized message.
  EXPECT_EQ(stats.messages_delivered, homes - 1);
  EXPECT_EQ(stats.bytes_on_wire, (homes - 1) * msg.wire_bytes());
  LinkModel link;  // defaults match the bus default
  EXPECT_NEAR(stats.simulated_transfer_seconds,
              static_cast<double>(homes - 1) *
                  link.transfer_seconds(msg.wire_bytes()),
              1e-12);
}

TEST(Payload, LossyLinkDropAndBillingUnchangedBySharing) {
  // Same broadcast schedule on two identically-seeded lossy buses, one
  // fed a fresh payload per broadcast (the old deep-copy pattern) and
  // one re-sending a single shared payload. Drop pattern, latency and
  // byte accounting must be identical — the drop RNG consumes one draw
  // per delivery either way.
  LinkModel link;
  link.drop_probability = 0.35;
  const std::size_t homes = 5;
  const int rounds = 400;

  MessageBus fresh(Topology(TopologyKind::kFullMesh, homes), link);
  for (int i = 0; i < rounds; ++i) {
    Message msg;
    msg.sender = static_cast<AgentId>(i % homes);
    msg.payload = std::vector<double>(64, static_cast<double>(i));
    broadcast(fresh, msg);
  }

  MessageBus shared(Topology(TopologyKind::kFullMesh, homes), link);
  Message reused;
  reused.payload = std::vector<double>(64, 7.0);
  for (int i = 0; i < rounds; ++i) {
    reused.sender = static_cast<AgentId>(i % homes);
    broadcast(shared, reused);
  }

  const auto a = fresh.stats();
  const auto b = shared.stats();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.bytes_on_wire, b.bytes_on_wire);
  EXPECT_DOUBLE_EQ(a.simulated_transfer_seconds, b.simulated_transfer_seconds);
  EXPECT_GT(a.messages_dropped, 0u);  // the rate actually bit
}

}  // namespace
}  // namespace pfdrl::net
