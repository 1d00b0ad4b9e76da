#include "core/federation.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/layer_split.hpp"
#include "fl/exchange.hpp"
#include "obs/metrics.hpp"

namespace pfdrl::core {

DrlFederation::DrlFederation(std::size_t num_homes, std::size_t share_layers,
                             net::TopologyKind topology, net::FaultPlan fault,
                             obs::MetricsRegistry* metrics,
                             fl::ExchangePolicy policy,
                             net::TopologyOptions topology_options,
                             std::size_t shards)
    : share_layers_(share_layers),
      router_(shards > 1 ? std::make_unique<net::ShardRouter>(
                               std::max<std::size_t>(1, num_homes), shards)
                         : nullptr),
      bus_(net::Topology(topology, std::max<std::size_t>(1, num_homes),
                         topology_options),
           std::move(fault)),
      metrics_(metrics),
      policy_(std::move(policy)) {
  if (router_) bus_.set_shard_router(router_.get());
}

DrlFederation::Exchange DrlFederation::make_exchange(
    const std::vector<FederatedDevice>& devices) const {
  // One exchange item per registered device agent. `send` is the α-layer
  // base prefix (Eq. 7's shared slice); `in_place` is the live parameter
  // span, so the engine lands the grouped average directly in the network
  // via fedavg_prefix and the untouched suffix stays Eq. 8's
  // personalization layers.
  Exchange ex;
  ex.items.reserve(devices.size());
  net::MessageKind kind = net::MessageKind::kDrlBaseParams;
  for (const auto& dev : devices) {
    nn::Mlp& net = dev.agent->network();
    const std::size_t prefix = base_prefix_params(net, share_layers_);
    if (share_layers_ >= net.num_layers()) {
      kind = net::MessageKind::kDrlFullParams;  // FRL shares everything
    }
    const auto params = net.parameters();
    ex.items.push_back({.agent = dev.home,
                        .device_type = dev.device_type,
                        .send = params.subspan(0, prefix),
                        .in_place = params});
  }
  ex.options.kind = kind;
  ex.options.metrics = metrics_;
  ex.options.group_size_histogram = "drl.agg_group_size";
  ex.options.policy = policy_;
  return ex;
}

void DrlFederation::fold_metrics(std::uint64_t rounds,
                                 const fl::ExchangeStats& now,
                                 const fl::ExchangeStats& before) {
  if (metrics_ == nullptr) return;
  metrics_->counter("drl.rounds").add(rounds);
  metrics_->counter("drl.messages_relayed").add(now.relayed - before.relayed);
  metrics_->counter("drl.contributions_accepted")
      .add(now.accepted - before.accepted);
  metrics_->counter("drl.contributions_rejected")
      .add(now.rejected - before.rejected);
  metrics_->counter("drl.params_averaged")
      .add(now.params_averaged - before.params_averaged);
  obs::record_bus_stats(*metrics_, "bus.drl", bus_.stats());
  if (router_) {
    obs::record_shard_router_stats(*metrics_, "bus.drl", router_->stats());
  }
}

void DrlFederation::round(std::vector<FederatedDevice>& devices,
                          std::uint64_t round_id) {
  if (bus_.num_agents() < 2) return;

  Exchange ex = make_exchange(devices);
  ex.options.parallel = router_ != nullptr;
  fl::ParamExchange exchange(bus_, std::move(ex.options));
  const fl::ExchangeStats stats = exchange.round(
      ex.items, round_id, [&](std::size_t i, std::span<const double>) {
        devices[i].agent->notify_external_parameter_update();
      });
  fold_metrics(1, stats, {});
}

void DrlFederation::begin_staged_rounds(std::vector<FederatedDevice>& devices) {
  if (staged_.has_value()) end_staged_rounds();
  if (bus_.num_agents() < 2) {
    throw std::logic_error(
        "DrlFederation: staged rounds need at least two agents");
  }

  // Built once per session: parameter spans point into the live
  // networks, which stay at fixed addresses for the whole session.
  Exchange ex = make_exchange(devices);
  staged_.emplace(bus_, std::move(ex.options), std::move(ex.items));
  staged_devices_ = &devices;
  staged_folded_ = {};
}

void DrlFederation::publish_staged(std::size_t shard, std::uint64_t round_id) {
  staged_->publish_shard(shard, round_id);
}

void DrlFederation::apply_staged(std::size_t shard, std::uint64_t round_id) {
  staged_->apply_shard(shard, round_id,
                       [this](std::size_t i, std::span<const double>) {
                         (*staged_devices_)[i]
                             .agent->notify_external_parameter_update();
                       });
}

void DrlFederation::fold_staged_metrics(std::uint64_t rounds) {
  if (!staged_.has_value()) return;
  const fl::ExchangeStats now = staged_->stats();
  fold_metrics(rounds, now, staged_folded_);
  staged_folded_ = now;
  staged_->record_metrics(rounds);
}

void DrlFederation::end_staged_rounds() {
  staged_.reset();
  staged_devices_ = nullptr;
  staged_folded_ = {};
}

std::size_t DrlFederation::staged_shards() const {
  return staged_.has_value() ? staged_->num_shards() : 1;
}

}  // namespace pfdrl::core
