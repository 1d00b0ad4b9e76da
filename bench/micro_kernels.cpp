// Micro-benchmarks of the computational kernels underlying the system:
// dense forward/backward, MLP and LSTM member train steps, one lockstep
// DQN learn tick over a city_ems group, LSTM steps, a day of forecast
// feature rows (flat and sequence builders), the Adam step, replay
// sampling, message bus broadcast, federated averaging and the exchange
// round. Inference and optimizer kernels run beside a per-row or scalar
// twin (arg ref=1), which they are bitwise equal to.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/trace.hpp"
#include "fl/aggregate.hpp"
#include "fl/exchange.hpp"
#include "net/bus.hpp"
#include "nn/dense.hpp"
#include "nn/fused.hpp"
#include "nn/kernels.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/ref.hpp"
#include "nn/workspace.hpp"
#include "rl/dqn.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pfdrl;

void BM_DenseForward(benchmark::State& state) {
  const std::size_t batch = 32, in = 100, out_dim = 100;
  util::Rng rng(2);
  std::vector<double> params(nn::dense_param_count(in, out_dim));
  nn::dense_init(params, in, out_dim, nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(batch, in);
  for (double& v : x.data()) v = rng.normal();
  nn::Matrix y;
  for (auto _ : state) {
    nn::dense_forward(params, in, out_dim, x, nn::Activation::kRelu, y);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_DenseForward);

// Dense row x weights + bias through the scalar reference: bias fill, then
// one nn::ref::axpy sweep per input — the form every tile is bitwise to.
void dense_row_ref(const double* w, const double* b, const double* x,
                   std::size_t in, std::size_t out, double* y) {
  std::copy(b, b + out, y);
  for (std::size_t k = 0; k < in; ++k) nn::ref::axpy(x[k], w + k * out, y, out);
}

// matvec1 (batch-1 act path) at the DQN's input, hidden and head shapes;
// arg 2 = 1 runs the nn::ref form instead.
void BM_Matvec1(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out_dim = static_cast<std::size_t>(state.range(1));
  const bool ref = state.range(2) != 0;
  util::Rng rng(12);
  std::vector<double> params(nn::dense_param_count(in, out_dim));
  nn::dense_init(params, in, out_dim, nn::InitScheme::kHeNormal, rng);
  const std::span<const double> w(params.data(), in * out_dim);
  const std::span<const double> b(params.data() + in * out_dim, out_dim);
  std::vector<double> x(in);
  for (double& v : x) v = rng.normal();
  std::vector<double> y(out_dim);
  for (auto _ : state) {
    if (ref) {
      dense_row_ref(w.data(), b.data(), x.data(), in, out_dim, y.data());
    } else {
      nn::matvec1(w, b, x, in, out_dim, y);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(ref ? "nn::ref axpy sweeps" : "16-column register tile");
}
BENCHMARK(BM_Matvec1)
    ->ArgNames({"in", "out", "ref"})
    ->Args({5, 100, 0})
    ->Args({5, 100, 1})
    ->Args({100, 100, 0})
    ->Args({100, 100, 1})
    ->Args({100, 3, 0})
    ->Args({100, 3, 1});

// A day of rows through one dense layer (the BP forecaster's 18 -> 64
// input layer over 1,440 windows): 4-row register tiles vs the per-row
// nn::ref form.
void BM_DenseRows1440(benchmark::State& state) {
  const bool ref = state.range(0) != 0;
  const std::size_t rows = 1440, in = 18, out_dim = 64;
  util::Rng rng(16);
  std::vector<double> params(nn::dense_param_count(in, out_dim));
  nn::dense_init(params, in, out_dim, nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(rows, in);
  for (double& v : x.data()) v = rng.normal();
  nn::Matrix y(rows, out_dim);
  for (auto _ : state) {
    if (ref) {
      for (std::size_t r = 0; r < rows; ++r) {
        dense_row_ref(params.data(), params.data() + in * out_dim,
                      x.row(r).data(), in, out_dim, y.row(r).data());
      }
    } else {
      nn::dense_forward(params, in, out_dim, x, nn::Activation::kIdentity, y);
    }
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
  state.SetLabel(ref ? "nn::ref per-row axpy" : "4-row register tiles");
}
BENCHMARK(BM_DenseRows1440)->ArgName("ref")->Arg(0)->Arg(1);

void BM_DenseForwardBatch1(benchmark::State& state) {
  const std::size_t in = 100, out_dim = 100;
  util::Rng rng(13);
  std::vector<double> params(nn::dense_param_count(in, out_dim));
  nn::dense_init(params, in, out_dim, nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(1, in);
  for (double& v : x.data()) v = rng.normal();
  nn::Matrix y;
  for (auto _ : state) {
    nn::dense_forward(params, in, out_dim, x, nn::Activation::kRelu, y);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetLabel("matvec1 dispatch path");
}
BENCHMARK(BM_DenseForwardBatch1);

// The two batch-1 inference paths of the paper's DQN net, side by side:
// the allocating predict() vs the workspace arena path the agents use.
void BM_MlpPredictAlloc(benchmark::State& state) {
  util::Rng rng(14);
  nn::Mlp net({5, 100, 100, 100, 100, 100, 100, 100, 100, 3},
              nn::Activation::kRelu, nn::Activation::kIdentity,
              nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(1, 5);
  for (double& v : x.data()) v = rng.normal();
  for (auto _ : state) {
    const nn::Matrix q = net.predict(x);
    benchmark::DoNotOptimize(q.data().data());
  }
  state.SetLabel("paper 8x100 net, fresh workspace per call");
}
BENCHMARK(BM_MlpPredictAlloc);

void BM_MlpPredictWorkspace(benchmark::State& state) {
  util::Rng rng(14);  // same seed: identical net as BM_MlpPredictAlloc
  nn::Mlp net({5, 100, 100, 100, 100, 100, 100, 100, 100, 3},
              nn::Activation::kRelu, nn::Activation::kIdentity,
              nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(1, 5);
  for (double& v : x.data()) v = rng.normal();
  nn::Workspace ws;
  for (auto _ : state) {
    ws.reset();
    const nn::Matrix& q = net.predict(x, ws);
    benchmark::DoNotOptimize(q.data().data());
  }
  state.SetLabel("paper 8x100 net, reused arena (steady-state 0 allocs)");
}
BENCHMARK(BM_MlpPredictWorkspace);

void BM_DqnActGreedy(benchmark::State& state) {
  rl::DqnConfig cfg;  // paper defaults: 8x100 ReLU, 3 actions
  cfg.state_dim = 5;
  rl::DqnAgent agent(cfg);
  util::Rng rng(15);
  std::vector<double> s(cfg.state_dim);
  for (double& v : s) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_greedy(s));
  }
  state.SetLabel("per-decision EMS hot path");
}
BENCHMARK(BM_DqnActGreedy);

void BM_MlpTrainBatch(benchmark::State& state) {
  util::Rng rng(3);
  nn::Mlp net({5, 100, 100, 100, 100, 100, 100, 100, 100, 3},
              nn::Activation::kRelu, nn::Activation::kIdentity,
              nn::InitScheme::kHeNormal, rng);
  nn::Adam opt(1e-3);
  nn::Matrix x(32, 5);
  nn::Matrix y(32, 3);
  for (double& v : x.data()) v = rng.normal();
  for (double& v : y.data()) v = rng.normal();
  for (auto _ : state) {
    const double loss =
        nn::mlp_train_step(net, x, y, nn::LossKind::kHuber, opt);
    benchmark::DoNotOptimize(loss);
  }
  state.SetLabel("paper 8x100 DQN net, batch 32, one member step");
}
BENCHMARK(BM_MlpTrainBatch);

// The backward pass of a 32-row batch (a DQN learn minibatch, a BP
// forecaster batch) through nn::mlp_backward (one member) on the slab
// kernels. net 0 is the BP forecaster 18-64-32-1, net 1 the EMS DQN
// 5-32x4-3.
void BM_DenseBackward(benchmark::State& state) {
  const bool dqn = state.range(0) != 0;
  const std::vector<std::size_t> dims =
      dqn ? std::vector<std::size_t>{5, 32, 32, 32, 32, 3}
          : std::vector<std::size_t>{18, 64, 32, 1};
  util::Rng rng(17);
  nn::Mlp net(dims, nn::Activation::kRelu, nn::Activation::kIdentity,
              nn::InitScheme::kHeNormal, rng);
  const std::size_t rows = 32;
  nn::Matrix x(rows, dims.front());
  nn::Matrix grad(rows, dims.back());
  for (double& v : x.data()) v = rng.normal();
  for (double& v : grad.data()) v = rng.normal();
  std::vector<double> grads(net.parameter_count());
  nn::Workspace ws;
  const nn::MlpTape tape = nn::mlp_forward(net, x, rows, ws);
  std::size_t macs = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    macs += dims[l] * dims[l + 1] * (l > 0 ? 2 : 1);  // dW, and dX above l 0
  }
  for (auto _ : state) {
    // Re-take the forward's activation slots (same shapes, so their
    // contents stay) to put the backward's delta slots after them.
    ws.reset();
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      benchmark::DoNotOptimize(ws.take(rows, dims[l + 1]).data().data());
    }
    std::fill(grads.begin(), grads.end(), 0.0);
    nn::mlp_backward(net, tape, grad, grads, ws);
    benchmark::DoNotOptimize(grads.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * macs));
  state.SetLabel(std::string(dqn ? "DQN 5-32x4-3" : "BP 18-64-32-1") +
                 ", slab tiles; items = MACs");
}
BENCHMARK(BM_DenseBackward)->ArgName("dqn")->Arg(0)->Arg(1);

// One lockstep DQN learn tick over city_ems's group shape — every agent's
// DqnAgent::learn as one pool task, as the EMS rounds run it: 28 agents
// with a 4x32 Q-network over a 5-wide state, 3 actions, batch 32, each
// replay warm (full) before timing. scratch_bytes is the process's
// workspace total after the run (nn::Workspace::total_bytes()).
void BM_FusedDqnLearn(benchmark::State& state) {
  const auto agents_n = static_cast<std::size_t>(state.range(0));
  rl::DqnConfig cfg;
  cfg.state_dim = 5;
  cfg.hidden = {32, 32, 32, 32};
  cfg.replay_capacity = 256;
  util::Rng fill(21);
  std::vector<std::unique_ptr<rl::DqnAgent>> agents;
  std::vector<rl::DqnAgent*> group;
  for (std::size_t i = 0; i < agents_n; ++i) {
    cfg.exploration_seed = 100 + i;
    agents.push_back(std::make_unique<rl::DqnAgent>(cfg));
    for (std::size_t t = 0; t < cfg.replay_capacity; ++t) {
      rl::Transition tr;
      for (std::size_t k = 0; k < cfg.state_dim; ++k) {
        tr.state.push_back(fill.normal());
        tr.next_state.push_back(fill.normal());
      }
      tr.action = static_cast<int>(t % cfg.num_actions);
      tr.reward = fill.uniform(-1.0, 1.0);
      agents.back()->remember(std::move(tr));
    }
    group.push_back(agents.back().get());
  }
  std::vector<double> losses(agents_n);
  util::ThreadPool& pool = util::ThreadPool::global();
  for (auto _ : state) {
    pool.parallel_for(0, agents_n,
                      [&](std::size_t i) { losses[i] = group[i]->learn(); });
    benchmark::DoNotOptimize(losses.data());
  }
  state.counters["scratch_bytes"] =
      static_cast<double>(nn::Workspace::total_bytes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(agents_n));
  state.SetLabel("city_ems group: 4x32 DQN, batch 32; items = agent steps");
}
BENCHMARK(BM_FusedDqnLearn)->ArgName("agents")->Arg(28);

void BM_LstmTrainBatch(benchmark::State& state) {
  util::Rng rng(4);
  nn::LstmRegressor net(3, 32, 1, rng);
  nn::Adam opt(1e-3);
  std::vector<nn::Matrix> xs(16, nn::Matrix(32, 3));
  nn::Matrix y(32, 1);
  for (auto& m : xs) {
    for (double& v : m.data()) v = rng.normal();
  }
  for (double& v : y.data()) v = rng.normal();
  std::vector<const nn::Matrix*> steps;
  for (const nn::Matrix& m : xs) steps.push_back(&m);
  for (auto _ : state) {
    const double loss =
        nn::lstm_train_step(net, steps, y, nn::LossKind::kMae, opt);
    benchmark::DoNotOptimize(loss);
  }
  state.SetLabel("window 16, hidden 32, batch 32, one member step");
}
BENCHMARK(BM_LstmTrainBatch);

// LSTM predict over a day of windows (1,440 rows, T = 16, H = 32): the
// row-tiled step vs the per-row nn::ref form of the same step.
void lstm_predict_ref(const nn::LstmRegressor& net,
                      const std::vector<nn::Matrix>& xs, nn::Matrix& out) {
  const std::size_t f = net.feature_dim(), h = net.hidden_dim();
  const std::size_t o = net.output_dim(), g4 = 4 * h;
  const double* wx = net.parameters().data();
  const double* wh = wx + f * g4;
  const double* b = wh + h * g4;
  const double* w_head = b + g4;
  const std::size_t rows = xs.front().rows();
  std::vector<double> z(g4), hv(h), c(h), tc(h);
  out.reshape(rows, o);
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(hv.begin(), hv.end(), 0.0);
    std::fill(c.begin(), c.end(), 0.0);
    for (const nn::Matrix& x : xs) {
      std::copy(b, b + g4, z.begin());
      for (std::size_t k = 0; k < f; ++k) {
        nn::ref::axpy(x(r, k), wx + k * g4, z.data(), g4);
      }
      for (std::size_t k = 0; k < h; ++k) {
        nn::ref::axpy(hv[k], wh + k * g4, z.data(), g4);
      }
      nn::kernels::sigmoid_inplace(z.data(), 2 * h);
      nn::kernels::tanh_inplace(z.data() + 2 * h, h);
      nn::kernels::sigmoid_inplace(z.data() + 3 * h, h);
      for (std::size_t j = 0; j < h; ++j) {
        c[j] = z[h + j] * c[j] + z[j] * z[2 * h + j];
        tc[j] = c[j];
      }
      nn::kernels::tanh_inplace(tc.data(), h);
      for (std::size_t j = 0; j < h; ++j) hv[j] = z[3 * h + j] * tc[j];
    }
    dense_row_ref(w_head, w_head + h * o, hv.data(), h, o, out.row(r).data());
  }
}

void BM_LstmPredict1440(benchmark::State& state) {
  const bool ref = state.range(0) != 0;
  util::Rng rng(17);
  nn::LstmRegressor net(3, 32, 1, rng);
  std::vector<nn::Matrix> xs(16, nn::Matrix(1440, 3));
  for (auto& m : xs) {
    for (double& v : m.data()) v = rng.normal(0.0, 0.5);
  }
  nn::Workspace ws;
  nn::Matrix out;
  for (auto _ : state) {
    if (ref) {
      lstm_predict_ref(net, xs, out);
      benchmark::DoNotOptimize(out.data().data());
    } else {
      ws.reset();
      benchmark::DoNotOptimize(net.predict(xs, ws).data().data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1440);
  state.SetLabel(ref ? "nn::ref per-row step" : "4-row register tiles");
}
BENCHMARK(BM_LstmPredict1440)->ArgName("ref")->Arg(0)->Arg(1);

// A day of forecast feature rows (1,440 targets, W = T = 16, the default
// horizon, calendar and log scale on) built from a trace: the flat set
// BP/LR/SVR train and predict on, and the LSTM/GRU sequence set.
data::DeviceTrace bench_trace() {
  data::DeviceTrace trace;
  trace.spec.type = data::DeviceType::kTv;
  trace.spec.standby_watts = 5.0;
  trace.spec.on_watts = 120.0;
  const std::size_t minutes = 2 * data::kMinutesPerDay;
  trace.watts.resize(minutes);
  trace.modes.assign(minutes, data::DeviceMode::kStandby);
  util::Rng rng(19);
  for (double& w : trace.watts) w = rng.uniform(0.0, 150.0);
  return trace;
}

data::WindowConfig day_window() {
  data::WindowConfig wc;
  wc.window = 16;
  wc.stride = 1;
  return wc;
}

void BM_MakeSupervised1440(benchmark::State& state) {
  const data::DeviceTrace trace = bench_trace();
  const data::WindowConfig wc = day_window();
  const std::size_t begin = data::kMinutesPerDay;
  for (auto _ : state) {
    const auto set =
        data::make_supervised(trace, wc, begin, begin + data::kMinutesPerDay);
    benchmark::DoNotOptimize(set.x.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1440);
}
BENCHMARK(BM_MakeSupervised1440)->Unit(benchmark::kMicrosecond);

void BM_MakeSequences1440(benchmark::State& state) {
  const data::DeviceTrace trace = bench_trace();
  const data::WindowConfig wc = day_window();
  const std::size_t begin = data::kMinutesPerDay;
  for (auto _ : state) {
    const auto set =
        data::make_sequences(trace, wc, begin, begin + data::kMinutesPerDay);
    benchmark::DoNotOptimize(set.xs.front().data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1440);
}
BENCHMARK(BM_MakeSequences1440)->Unit(benchmark::kMicrosecond);

// One Adam step at the BP forecaster (3,329), paper LSTM (4,641) and paper
// DQN (71,603) parameter counts: 4-lane vector step vs nn::ref::adam_step.
void BM_AdamStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool ref = state.range(1) != 0;
  util::Rng rng(18);
  std::vector<double> p(n), g(n), m(n, 0.0), v(n, 0.0);
  for (double& x : p) x = rng.normal();
  for (double& x : g) x = rng.normal();
  nn::Adam opt(1e-3);
  std::int64_t t = 0;
  for (auto _ : state) {
    if (ref) {
      nn::ref::adam_step(p, g, m, v, 1e-3, 0.9, 0.999, 1e-8, ++t);
    } else {
      opt.step(p, g);
    }
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(ref ? "nn::ref scalar" : "4-lane AVX2");
}
BENCHMARK(BM_AdamStep)
    ->ArgNames({"params", "ref"})
    ->Args({3329, 0})
    ->Args({3329, 1})
    ->Args({4641, 0})
    ->Args({4641, 1})
    ->Args({71603, 0})
    ->Args({71603, 1});

void BM_ReplaySample(benchmark::State& state) {
  rl::ReplayBuffer buf(2000);
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    rl::Transition t;
    t.state.assign(5, rng.normal());
    t.next_state.assign(5, rng.normal());
    buf.push(std::move(t));
  }
  for (auto _ : state) {
    const auto batch = buf.sample(32, rng);
    benchmark::DoNotOptimize(batch.data());
  }
}
BENCHMARK(BM_ReplaySample);

void BM_FedAvg(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<std::vector<double>> inputs(clients,
                                          std::vector<double>(80000));
  for (auto& v : inputs) {
    for (double& x : v) x = rng.normal();
  }
  std::vector<std::span<const double>> views(inputs.begin(), inputs.end());
  std::vector<double> out(80000);
  for (auto _ : state) {
    fl::fedavg(views, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("80k params (paper DQN scale)");
}
BENCHMARK(BM_FedAvg)->Arg(5)->Arg(100);

// One clean full-mesh exchange round at the paper's Fig. 8 client counts,
// one 2,400-parameter item per agent, in one exchange session (the way
// DflTrainer and DrlFederation drive it): each iteration publishes and
// applies the next round. bus_only=1 runs the same publish and fate reads
// with a min_group no item can reach, so nothing is averaged: the
// difference between the two rows is the aggregation's share of the
// round.
void BM_ExchangeRound(benchmark::State& state) {
  const auto agents = static_cast<std::size_t>(state.range(0));
  const bool bus_only = state.range(1) != 0;
  constexpr std::size_t kParams = 2400;
  util::Rng rng(18);
  std::vector<std::vector<double>> params(agents, std::vector<double>(kParams));
  for (auto& v : params) {
    for (double& x : v) x = rng.normal();
  }
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, agents));
  std::vector<fl::ExchangeItem> items;
  for (std::size_t a = 0; a < agents; ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = 0,
                     .send = params[a],
                     .in_place = params[a]});
  }
  fl::ParamExchange::Options options;
  if (bus_only) options.min_group = agents + 1;
  fl::StagedExchange session(bus, options, items);
  std::uint64_t round = 0;
  for (auto _ : state) {
    session.publish_shard(0, round);
    session.apply_shard(0, round, {});
    benchmark::DoNotOptimize(params.front().data());
    benchmark::ClobberMemory();
    ++round;
  }
  state.SetLabel(bus_only ? "publish + fate reads only" : "full round");
}
BENCHMARK(BM_ExchangeRound)
    ->ArgNames({"agents", "bus_only"})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({190, 0})
    ->Args({190, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
