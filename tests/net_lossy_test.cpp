// Lossy-link behaviour: the bus drops deliveries at the configured rate
// and the federated trainers degrade gracefully (they average whatever
// arrives) — while secure aggregation correctly refuses lossy links.
#include <gtest/gtest.h>

#include "bus_fates.hpp"
#include "core/pipeline.hpp"
#include "fl/dfl.hpp"
#include "net/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace pfdrl {
namespace {

TEST(LossyBus, DropRateApproximatelyRespected) {
  net::LinkModel link;
  link.drop_probability = 0.3;
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 2), link);
  net::Message msg;
  msg.sender = 0;
  msg.payload.assign(4, 1.0);
  const int n = 5000;
  // Fault draws are a pure function of the delivery: stamp distinct
  // rounds so these are 5000 distinct deliveries, not one repeated.
  for (int i = 0; i < n; ++i) {
    msg.round = static_cast<std::uint64_t>(i);
    net::testing::broadcast(bus, msg);
  }
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_delivered + stats.messages_dropped,
            static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(stats.messages_dropped) / n, 0.3, 0.03);
}

TEST(LossyBus, ReliableLinkDropsNothing) {
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 3));
  net::Message msg;
  msg.sender = 0;
  for (int i = 0; i < 100; ++i) net::testing::broadcast(bus, msg);
  EXPECT_EQ(bus.stats().messages_dropped, 0u);
  EXPECT_EQ(bus.stats().messages_delivered, 200u);
}

TEST(LossyBus, DroppedMessagesNotBilled) {
  net::LinkModel link;
  link.drop_probability = 1.0;  // black hole
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 2), link);
  net::Message msg;
  msg.sender = 0;
  msg.payload.assign(100, 1.0);
  const auto fates = net::testing::broadcast(bus, msg);
  const auto stats = bus.stats();
  EXPECT_EQ(stats.messages_delivered, 0u);
  EXPECT_EQ(stats.bytes_on_wire, 0u);
  EXPECT_EQ(net::testing::fate_at(fates, 1).copies, 0u);
}

std::vector<data::HouseholdTrace> small_traces() {
  sim::ScenarioConfig cfg;
  cfg.neighborhood.num_households = 3;
  cfg.neighborhood.min_devices = 3;
  cfg.neighborhood.max_devices = 3;
  cfg.trace.days = 2;
  return sim::Scenario::generate(cfg).traces;
}

TEST(LossyDfl, DegradesGracefully) {
  const auto traces = small_traces();
  fl::DflConfig cfg;
  cfg.method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  cfg.fault.link.drop_probability = 0.4;
  fl::DflTrainer trainer(traces, cfg);
  trainer.run(0, data::kMinutesPerDay);  // must not throw or deadlock
  const double acc =
      trainer.mean_test_accuracy(data::kMinutesPerDay, traces[0].minutes());
  EXPECT_GT(acc, 0.2);  // still learns from partial aggregates
  EXPECT_GT(trainer.comm_stats().messages_dropped, 0u);
}

TEST(LossyDrl, PipelinePlumbsLinkModelIntoDrlFederation) {
  // Regression: PipelineConfig::link used to stop at the forecast bus —
  // the DRL plan exchange always rode a perfect link, so drops never
  // showed up in drl_comm_stats(). Now both buses share the model.
  // Dense homes (8 of the 10 device types each) guarantee homologous
  // peers, so contributions flow whenever the link lets them through.
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 3;
  sc.neighborhood.min_devices = 8;
  sc.neighborhood.max_devices = 8;
  sc.trace.days = 2;
  const auto traces = sim::Scenario::generate(sc).traces;
  auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, 42);
  cfg.forecast_method = forecast::Method::kLr;
  cfg.dqn.hidden = {12, 12};
  cfg.gamma_hours = 2.0;  // several DRL rounds within one training day
  cfg.fault.link.drop_probability = 0.4;
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;

  core::EmsPipeline pipeline(traces, cfg);
  const std::size_t day = data::kMinutesPerDay;
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);

  const auto drl = pipeline.drl_comm_stats();
  EXPECT_GT(drl.messages_sent, 0u);
  EXPECT_GT(drl.messages_dropped, 0u);
  EXPECT_EQ(drl.messages_delivered + drl.messages_dropped,
            drl.messages_sent * 2u);  // full mesh of 3: two receivers each

  // The drops surface in the metrics export too.
  pipeline.sync_runtime_metrics();
  EXPECT_EQ(reg.counter("bus.drl.messages_dropped").value(),
            drl.messages_dropped);
  EXPECT_GT(reg.counter("drl.rounds").value(), 0u);
  EXPECT_GT(reg.counter("drl.contributions_accepted").value(), 0u);
}

TEST(LossyDfl, SecureAggregationRefusesLossyLink) {
  const auto traces = small_traces();
  fl::DflConfig cfg;
  cfg.method = forecast::Method::kLr;
  cfg.secure_aggregation = true;
  cfg.fault.link.drop_probability = 0.1;
  EXPECT_THROW(fl::DflTrainer(traces, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pfdrl
