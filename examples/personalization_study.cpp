// Personalization study: the alpha layer-split API on a small
// neighbourhood — how much of each home's DQN is shared, what stays
// local, and how homologous agents relate after federation.
//
//   $ ./examples/personalization_study
#include <cstdio>

#include "core/federation.hpp"
#include "core/layer_split.hpp"
#include "nn/serialize.hpp"
#include "rl/dqn.hpp"
#include "util/table.hpp"

int main() {
  using namespace pfdrl;

  // Two residences owning the same device type; the paper's 8x100 DQN.
  rl::DqnConfig cfg;
  cfg.state_dim = 5;
  cfg.seed = 7;  // shared init (the paper's "same default model")
  cfg.exploration_seed = 1;
  rl::DqnAgent home_a(cfg);
  cfg.exploration_seed = 2;
  rl::DqnAgent home_b(cfg);

  const nn::Mlp& net = home_a.network();
  std::printf("DQN: %zu dense layers, %zu parameters\n\n", net.num_layers(),
              net.parameter_count());

  util::TextTable split({"alpha", "shared params", "local params",
                         "shared %"});
  for (std::size_t alpha = 1; alpha <= core::hidden_layer_count(net);
       ++alpha) {
    const std::size_t shared = core::base_prefix_params(net, alpha);
    split.add_row({std::to_string(alpha), std::to_string(shared),
                   std::to_string(net.parameter_count() - shared),
                   util::fmt_percent(static_cast<double>(shared) /
                                     static_cast<double>(net.parameter_count()))});
  }
  split.print("layer split (alpha base layers shared, rest personal):");

  // Let the agents diverge (their own experience, each learning alone),
  // then federate alpha=6.
  util::Rng rng(3);
  for (rl::DqnAgent* agent : {&home_a, &home_b}) {
    for (int i = 0; i < 256; ++i) {
      rl::Transition t;
      t.state = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform(),
                 rng.uniform()};
      t.action = static_cast<int>(rng.uniform_int(0, 2));
      t.reward = rng.uniform(-1, 1);
      t.next_state = t.state;
      t.terminal = true;
      agent->remember(std::move(t));
    }
    for (int i = 0; i < 50; ++i) agent->learn();
  }

  const auto digest = [](const rl::DqnAgent& agent, std::size_t lo,
                         std::size_t hi) {
    const auto p = agent.network().parameters();
    return nn::parameter_digest(std::span(p.data() + lo, hi - lo));
  };

  const std::size_t prefix = core::base_prefix_params(net, 6);
  std::printf("\nbefore federation: base slices %s, personal slices %s\n",
              digest(home_a, 0, prefix) == digest(home_b, 0, prefix)
                  ? "equal"
                  : "different",
              digest(home_a, prefix, net.parameter_count()) ==
                      digest(home_b, prefix, net.parameter_count())
                  ? "equal"
                  : "different");

  core::DrlFederation federation(2, /*share_layers=*/6,
                                 net::TopologyKind::kFullMesh);
  std::vector<core::FederatedDevice> devices = {{0, 0, &home_a},
                                                {1, 0, &home_b}};
  federation.round(devices, 0);

  std::printf("after federation:  base slices %s, personal slices %s\n",
              digest(home_a, 0, prefix) == digest(home_b, 0, prefix)
                  ? "equal"
                  : "different",
              digest(home_a, prefix, net.parameter_count()) ==
                      digest(home_b, prefix, net.parameter_count())
                  ? "equal"
                  : "different");

  const auto stats = federation.comm_stats();
  std::printf(
      "\nfederation traffic: %llu messages, %.2f MiB (vs %.2f MiB if all "
      "%zu layers were shared)\n",
      static_cast<unsigned long long>(stats.messages_sent),
      static_cast<double>(stats.bytes_on_wire) / (1024.0 * 1024.0),
      static_cast<double>(stats.bytes_on_wire) / (1024.0 * 1024.0) *
          static_cast<double>(net.parameter_count()) /
          static_cast<double>(prefix),
      net.num_layers());
  return 0;
}
