// Group-of-N against groups of one for the fused training engines, plus
// the scratch pins: training scratch bounded by threads, not members, and
// steady-state batches allocation-free (docs/fused_training.md). These tests are the determinism contract: a
// home trained alone is a group of one, and an N-member batch must give
// every member the bits of its own one-member batch, so members never
// mix — every EXPECT below compares doubles with EXPECT_EQ. (The
// gradient math of a group of one is pinned by the finite-difference
// checks in nn_lstm_test, nn_gru_test and nn_dense_mlp_test.)
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "nn/fused.hpp"
#include "nn/gru.hpp"
#include "nn/kernels.hpp"
#include "nn/lstm.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "rl/dqn.hpp"
#include "rl/fused.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using pfdrl::nn::Activation;
using pfdrl::nn::Adam;
using pfdrl::nn::FusedGru;
using pfdrl::nn::FusedLstm;
using pfdrl::nn::FusedMlp;
using pfdrl::nn::FusedSlice;
using pfdrl::nn::GruRegressor;
using pfdrl::nn::InitScheme;
using pfdrl::nn::LossKind;
using pfdrl::nn::LstmRegressor;
using pfdrl::nn::Matrix;
using pfdrl::nn::Mlp;
using pfdrl::nn::Workspace;
using pfdrl::util::Rng;

void fill_random(Matrix& m, Rng& rng) {
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
}

/// Home-major slab + slice table from per-home batches.
struct Slab {
  std::vector<FusedSlice> slices;
  std::size_t total_rows = 0;
};

Slab make_slices(const std::vector<std::size_t>& batch_sizes) {
  Slab s;
  for (std::size_t bs : batch_sizes) {
    s.slices.push_back({s.total_rows, bs});
    s.total_rows += bs;
  }
  return s;
}

void copy_rows(const Matrix& src, Matrix& dst, std::size_t dst_begin) {
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t c = 0; c < src.cols(); ++c) {
      dst(dst_begin + r, c) = src(r, c);
    }
  }
}

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at flat index " << i;
  }
}

constexpr std::size_t kF = 3;     // features per step
constexpr std::size_t kH = 10;    // hidden width (exercises j-tile tails)
constexpr std::size_t kT = 5;     // sequence length
constexpr std::size_t kRounds = 4;
// Mixed batch sizes: multiples of the row block, remainders, and a
// batch-1 member (the matvec1 leftover-row case for the MLP).
const std::vector<std::size_t> kBatches = {5, 8, 1, 4, 7};

/// Step pointers for a recurrent engine's train_batch.
std::vector<const Matrix*> step_ptrs(const std::vector<Matrix>& xs) {
  std::vector<const Matrix*> ptrs;
  for (const Matrix& m : xs) ptrs.push_back(&m);
  return ptrs;
}

/// One-member batch of a recurrent engine (FusedLstm / FusedGru) over all
/// rows of (xs, y); returns the member's loss.
template <class Engine, class Net>
double train_alone(Engine& engine, Net& net, const std::vector<Matrix>& xs,
                   const Matrix& y, LossKind loss,
                   pfdrl::nn::Optimizer& opt) {
  Net* nets[] = {&net};
  const FusedSlice slices[] = {{0, y.rows()}};
  pfdrl::nn::Optimizer* opts[] = {&opt};
  double value = 0.0;
  engine.train_batch(nets, slices, step_ptrs(xs), y, loss, opts, {&value, 1});
  return value;
}

TEST(NnFused, LstmBitwiseMatchesPerHome) {
  Rng rng(1234);
  const std::size_t members = kBatches.size();
  std::vector<LstmRegressor> base;
  base.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    Rng init = rng.fork(100 + i);
    base.emplace_back(kF, kH, 1, init);
  }
  std::vector<LstmRegressor> solo = base;  // trained in groups of one

  const Slab slab = make_slices(kBatches);
  FusedLstm fused;
  FusedLstm solo_engine;
  std::vector<Adam> fused_opts(members, Adam(3e-3));
  std::vector<Adam> solo_opts(members, Adam(3e-3));

  for (std::size_t round = 0; round < kRounds; ++round) {
    // Per-home batches and the fused slab built from the same data.
    std::vector<std::vector<Matrix>> xs(members);
    std::vector<Matrix> ys(members);
    std::vector<Matrix> slab_xs(kT);
    Matrix slab_y(slab.total_rows, 1);
    for (Matrix& m : slab_xs) m = Matrix(slab.total_rows, kF);
    for (std::size_t i = 0; i < members; ++i) {
      xs[i].resize(kT);
      for (std::size_t t = 0; t < kT; ++t) {
        xs[i][t] = Matrix(kBatches[i], kF);
        fill_random(xs[i][t], rng);
        copy_rows(xs[i][t], slab_xs[t], slab.slices[i].row_begin);
      }
      ys[i] = Matrix(kBatches[i], 1);
      fill_random(ys[i], rng);
      copy_rows(ys[i], slab_y, slab.slices[i].row_begin);
    }

    std::vector<double> solo_losses(members);
    for (std::size_t i = 0; i < members; ++i) {
      solo_losses[i] = train_alone(solo_engine, solo[i], xs[i], ys[i],
                                   LossKind::kMae, solo_opts[i]);
    }

    std::vector<LstmRegressor*> nets;
    std::vector<pfdrl::nn::Optimizer*> opts;
    for (std::size_t i = 0; i < members; ++i) {
      nets.push_back(&base[i]);
      opts.push_back(&fused_opts[i]);
    }
    const auto xs_ptrs = step_ptrs(slab_xs);
    std::vector<double> fused_losses(members);
    fused.train_batch(nets, slab.slices, xs_ptrs, slab_y, LossKind::kMae,
                      opts, fused_losses);

    for (std::size_t i = 0; i < members; ++i) {
      ASSERT_EQ(fused_losses[i], solo_losses[i]) << "round " << round;
      expect_bitwise_equal(base[i].parameters(), solo[i].parameters(),
                           "lstm params");
    }
  }
}

TEST(NnFused, GruBitwiseMatchesPerHome) {
  Rng rng(987);
  const std::size_t members = kBatches.size();
  std::vector<GruRegressor> base;
  base.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    Rng init = rng.fork(200 + i);
    base.emplace_back(kF, kH, 1, init);
  }
  std::vector<GruRegressor> solo = base;  // trained in groups of one

  const Slab slab = make_slices(kBatches);
  FusedGru fused;
  FusedGru solo_engine;
  std::vector<Adam> fused_opts(members, Adam(3e-3));
  std::vector<Adam> solo_opts(members, Adam(3e-3));

  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::vector<Matrix>> xs(members);
    std::vector<Matrix> ys(members);
    std::vector<Matrix> slab_xs(kT);
    Matrix slab_y(slab.total_rows, 1);
    for (Matrix& m : slab_xs) m = Matrix(slab.total_rows, kF);
    for (std::size_t i = 0; i < members; ++i) {
      xs[i].resize(kT);
      for (std::size_t t = 0; t < kT; ++t) {
        xs[i][t] = Matrix(kBatches[i], kF);
        fill_random(xs[i][t], rng);
        copy_rows(xs[i][t], slab_xs[t], slab.slices[i].row_begin);
      }
      ys[i] = Matrix(kBatches[i], 1);
      fill_random(ys[i], rng);
      copy_rows(ys[i], slab_y, slab.slices[i].row_begin);
    }

    std::vector<double> solo_losses(members);
    for (std::size_t i = 0; i < members; ++i) {
      solo_losses[i] = train_alone(solo_engine, solo[i], xs[i], ys[i],
                                   LossKind::kMae, solo_opts[i]);
    }

    std::vector<GruRegressor*> nets;
    std::vector<pfdrl::nn::Optimizer*> opts;
    for (std::size_t i = 0; i < members; ++i) {
      nets.push_back(&base[i]);
      opts.push_back(&fused_opts[i]);
    }
    const auto xs_ptrs = step_ptrs(slab_xs);
    std::vector<double> fused_losses(members);
    fused.train_batch(nets, slab.slices, xs_ptrs, slab_y, LossKind::kMae,
                      opts, fused_losses);

    for (std::size_t i = 0; i < members; ++i) {
      ASSERT_EQ(fused_losses[i], solo_losses[i]) << "round " << round;
      expect_bitwise_equal(base[i].parameters(), solo[i].parameters(),
                           "gru params");
    }
  }
}

TEST(NnFused, MlpBitwiseMatchesPerHome) {
  Rng rng(555);
  const std::size_t members = kBatches.size();
  const std::vector<std::size_t> dims = {4, 12, 9, 2};
  std::vector<Mlp> base;
  base.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    Rng init = rng.fork(300 + i);
    base.emplace_back(dims, Activation::kRelu, Activation::kIdentity,
                      InitScheme::kHeNormal, init);
  }
  std::vector<Mlp> solo = base;  // trained in groups of one

  const Slab slab = make_slices(kBatches);
  FusedMlp fused;
  FusedMlp solo_engine;
  std::vector<Adam> fused_opts(members, Adam(1e-3));
  std::vector<Adam> solo_opts(members, Adam(1e-3));

  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<Matrix> xs(members), ys(members);
    Matrix slab_x(slab.total_rows, dims.front());
    Matrix slab_y(slab.total_rows, dims.back());
    for (std::size_t i = 0; i < members; ++i) {
      xs[i] = Matrix(kBatches[i], dims.front());
      ys[i] = Matrix(kBatches[i], dims.back());
      fill_random(xs[i], rng);
      fill_random(ys[i], rng);
      copy_rows(xs[i], slab_x, slab.slices[i].row_begin);
      copy_rows(ys[i], slab_y, slab.slices[i].row_begin);
    }

    std::vector<double> solo_losses(members);
    for (std::size_t i = 0; i < members; ++i) {
      Mlp* one[] = {&solo[i]};
      const FusedSlice all_rows[] = {{0, kBatches[i]}};
      pfdrl::nn::Optimizer* one_opt[] = {&solo_opts[i]};
      solo_engine.train_batch(one, all_rows, xs[i], ys[i], LossKind::kHuber,
                              one_opt, {&solo_losses[i], 1});
    }

    std::vector<Mlp*> nets;
    std::vector<pfdrl::nn::Optimizer*> opts;
    for (std::size_t i = 0; i < members; ++i) {
      nets.push_back(&base[i]);
      opts.push_back(&fused_opts[i]);
    }
    std::vector<double> fused_losses(members);
    fused.train_batch(nets, slab.slices, slab_x, slab_y, LossKind::kHuber,
                      opts, fused_losses);

    for (std::size_t i = 0; i < members; ++i) {
      ASSERT_EQ(fused_losses[i], solo_losses[i]) << "round " << round;
      expect_bitwise_equal(base[i].parameters(), solo[i].parameters(),
                           "mlp params");
    }
  }
}

TEST(NnFused, SliceTableMustTileTheSlab) {
  Rng rng(77);
  Rng i0 = rng.fork(0);
  Rng i1 = rng.fork(1);
  std::vector<Mlp> nets_store;
  nets_store.emplace_back(std::vector<std::size_t>{2, 4, 1}, Activation::kRelu,
                          Activation::kIdentity, InitScheme::kHeNormal, i0);
  nets_store.emplace_back(std::vector<std::size_t>{2, 4, 1}, Activation::kRelu,
                          Activation::kIdentity, InitScheme::kHeNormal, i1);
  std::vector<Mlp*> nets = {&nets_store[0], &nets_store[1]};
  std::vector<Adam> opts_store(2, Adam(1e-3));
  std::vector<pfdrl::nn::Optimizer*> opts = {&opts_store[0], &opts_store[1]};
  std::vector<double> losses(2);
  Matrix x(6, 2);
  Matrix y(6, 1);
  fill_random(x, rng);
  fill_random(y, rng);
  FusedMlp fused;
  const auto train = [&](const std::vector<FusedSlice>& slices,
                         std::size_t src_row0 = 0) {
    fused.train_batch(nets, slices, x, y, LossKind::kMse, opts, losses,
                      src_row0);
  };
  // Gap between slices.
  std::vector<FusedSlice> gap = {{0, 2}, {3, 3}};
  EXPECT_THROW(train(gap), std::invalid_argument);
  // Short coverage is a legal epoch-arena prefix batch (rows [0, 4) of
  // the 6-row source), not an error.
  std::vector<FusedSlice> short_cover = {{0, 2}, {2, 2}};
  EXPECT_NO_THROW(train(short_cover));
  // But the batch may never reach past the source rows, with or without
  // an arena offset.
  std::vector<FusedSlice> over = {{0, 4}, {4, 3}};
  EXPECT_THROW(train(over), std::invalid_argument);
  EXPECT_THROW(train(short_cover, /*src_row0=*/3), std::invalid_argument);
}

// ---- Scratch bounds ----------------------------------------------------
// Every member step runs on its thread's nn::thread_scratch(), so what a
// fused batch adds to the workspace totals is bounded by the threads
// that run members, never by the member count.

/// Workspace growth while `step` runs on a fresh thread, whose scratch
/// starts empty. A group of one runs inline on its caller, so this is
/// exactly one cold member step (its thread's scratch is released when
/// the thread exits).
struct Growth {
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;
};
template <class Step>
Growth cold_member_step(Step&& step) {
  Growth g;
  std::thread t([&] {
    const std::uint64_t bytes0 = Workspace::total_bytes();
    const std::uint64_t allocs0 = Workspace::total_allocations();
    step();
    g.bytes = Workspace::total_bytes() - bytes0;
    g.allocs = Workspace::total_allocations() - allocs0;
  });
  t.join();
  return g;
}

/// Threads that can run a member step: the pool's workers plus the
/// calling thread.
std::uint64_t member_threads() {
  return pfdrl::util::ThreadPool::global().size() + 1;
}

/// Runs `group` (a fused batch of many members) and checks that the
/// workspace bytes it adds stay within member_threads() cold member
/// steps of `solo` (the same step as a group of one).
template <class Solo, class Group>
void expect_scratch_bounded_by_threads(const char* what, Solo&& solo,
                                       Group&& group) {
  const Growth one = cold_member_step(solo);
  ASSERT_GT(one.bytes, 0u) << what;
  const std::uint64_t bytes0 = Workspace::total_bytes();
  for (int rep = 0; rep < 3; ++rep) group();
  EXPECT_LE(Workspace::total_bytes() - bytes0, member_threads() * one.bytes)
      << what << ": fused scratch must be bounded by threads x one member "
      << "step (" << one.bytes << " bytes), not by the member count";
}

TEST(NnFused, ScratchIsBoundedByThreadsNotMembers) {
  // Few rows and wide layers, so a member's gradient span is a large
  // share of its step: scratch that grew with members (a group-wide
  // gradient arena) would overrun the bound.
  constexpr std::size_t kMembers = 24;
  constexpr std::size_t kBs = 4;
  constexpr std::size_t kWide = 32;
  constexpr std::size_t kRows = kMembers * kBs;
  Rng rng(2024);
  std::vector<FusedSlice> slices;
  for (std::size_t i = 0; i < kMembers; ++i) slices.push_back({i * kBs, kBs});
  const FusedSlice solo_slice[] = {{0, kBs}};
  std::vector<Adam> opts_store(kMembers + 1, Adam(1e-3));
  std::vector<pfdrl::nn::Optimizer*> opts;
  for (std::size_t i = 0; i < kMembers; ++i) opts.push_back(&opts_store[i]);
  pfdrl::nn::Optimizer* solo_opt[] = {&opts_store[kMembers]};
  std::vector<double> losses(kMembers);
  double solo_loss = 0.0;

  std::vector<Matrix> slab_xs(kT, Matrix(kRows, kF));
  for (Matrix& m : slab_xs) fill_random(m, rng);
  const auto xs_ptrs = step_ptrs(slab_xs);
  Matrix slab_y(kRows, 1);
  fill_random(slab_y, rng);

  {
    std::vector<LstmRegressor> store;
    store.reserve(kMembers + 1);
    for (std::size_t i = 0; i <= kMembers; ++i) {
      Rng init = rng.fork(i);
      store.emplace_back(kF, kWide, 1, init);
    }
    std::vector<LstmRegressor*> nets;
    for (std::size_t i = 0; i < kMembers; ++i) nets.push_back(&store[i]);
    LstmRegressor* solo_net[] = {&store[kMembers]};
    FusedLstm engine;
    expect_scratch_bounded_by_threads(
        "lstm",
        [&] {
          engine.train_batch(solo_net, solo_slice, xs_ptrs, slab_y,
                             LossKind::kMae, solo_opt, {&solo_loss, 1});
        },
        [&] {
          engine.train_batch(nets, slices, xs_ptrs, slab_y, LossKind::kMae,
                             opts, losses);
        });
  }
  {
    std::vector<GruRegressor> store;
    store.reserve(kMembers + 1);
    for (std::size_t i = 0; i <= kMembers; ++i) {
      Rng init = rng.fork(100 + i);
      store.emplace_back(kF, kWide, 1, init);
    }
    std::vector<GruRegressor*> nets;
    for (std::size_t i = 0; i < kMembers; ++i) nets.push_back(&store[i]);
    GruRegressor* solo_net[] = {&store[kMembers]};
    FusedGru engine;
    expect_scratch_bounded_by_threads(
        "gru",
        [&] {
          engine.train_batch(solo_net, solo_slice, xs_ptrs, slab_y,
                             LossKind::kMae, solo_opt, {&solo_loss, 1});
        },
        [&] {
          engine.train_batch(nets, slices, xs_ptrs, slab_y, LossKind::kMae,
                             opts, losses);
        });
  }
  {
    const std::vector<std::size_t> dims = {kF, 2 * kWide, kWide, 1};
    std::vector<Mlp> store;
    store.reserve(kMembers + 1);
    for (std::size_t i = 0; i <= kMembers; ++i) {
      Rng init = rng.fork(200 + i);
      store.emplace_back(dims, Activation::kRelu, Activation::kIdentity,
                         InitScheme::kHeNormal, init);
    }
    std::vector<Mlp*> nets;
    for (std::size_t i = 0; i < kMembers; ++i) nets.push_back(&store[i]);
    Mlp* solo_net[] = {&store[kMembers]};
    FusedMlp engine;
    expect_scratch_bounded_by_threads(
        "mlp",
        [&] {
          engine.train_batch(solo_net, solo_slice, slab_xs[0], slab_y,
                             LossKind::kHuber, solo_opt, {&solo_loss, 1});
        },
        [&] {
          engine.train_batch(nets, slices, slab_xs[0], slab_y,
                             LossKind::kHuber, opts, losses);
        });
  }
  {
    // city_ems's group shape: 4x32 DQN over a 5-wide state, 3 actions.
    pfdrl::rl::DqnConfig cfg;
    cfg.state_dim = 5;
    cfg.hidden = {32, 32, 32, 32};
    cfg.replay_capacity = 64;
    std::vector<std::unique_ptr<pfdrl::rl::DqnAgent>> agents;
    for (std::size_t i = 0; i <= kMembers; ++i) {
      cfg.exploration_seed = 900 + i;
      agents.push_back(std::make_unique<pfdrl::rl::DqnAgent>(cfg));
      for (std::size_t t = 0; t < cfg.replay_capacity; ++t) {
        pfdrl::rl::Transition tr;
        tr.state.resize(cfg.state_dim);
        tr.next_state.resize(cfg.state_dim);
        for (double& v : tr.state) v = rng.normal();
        for (double& v : tr.next_state) v = rng.normal();
        tr.action = static_cast<int>(t % cfg.num_actions);
        tr.reward = rng.uniform(-1.0, 1.0);
        agents[i]->remember(std::move(tr));
      }
    }
    std::vector<pfdrl::rl::DqnAgent*> group;
    for (std::size_t i = 0; i < kMembers; ++i) group.push_back(agents[i].get());
    pfdrl::rl::DqnAgent* solo_agent[] = {agents[kMembers].get()};
    pfdrl::rl::FusedDqnLearner learner;
    expect_scratch_bounded_by_threads(
        "dqn",
        [&] {
          ASSERT_TRUE(learner.learn(solo_agent, {&solo_loss, 1}));
        },
        [&] { ASSERT_TRUE(learner.learn(group, losses)); });
  }
}

// Steady-state fused batches allocate nothing once warm. Which pool
// thread runs which member varies from batch to batch, so a thread may
// still grow when it runs its first member step; the whole run may
// therefore grow by at most member_threads() cold member steps — and
// runs more batches than that bound, so even one allocation per batch
// fails. A group of one runs on its caller: zero growth once warm.
TEST(NnFused, SteadyStateFusedBatchesAllocateNothing) {
  Rng rng(42);
  const std::size_t members = 6;
  const std::size_t bs = 7;
  std::vector<LstmRegressor> nets_store;
  nets_store.reserve(members);
  std::vector<Adam> opts_store(members, Adam(3e-3));
  for (std::size_t i = 0; i < members; ++i) {
    Rng init = rng.fork(i);
    nets_store.emplace_back(kF, kH, 1, init);
  }
  std::vector<FusedSlice> slices;
  for (std::size_t i = 0; i < members; ++i) slices.push_back({i * bs, bs});
  const std::size_t rows = members * bs;

  std::vector<Matrix> slab_xs(kT);
  for (Matrix& m : slab_xs) {
    m = Matrix(rows, kF);
    fill_random(m, rng);
  }
  Matrix slab_y(rows, 1);
  fill_random(slab_y, rng);

  std::vector<LstmRegressor*> nets;
  std::vector<pfdrl::nn::Optimizer*> opts;
  for (std::size_t i = 0; i < members; ++i) {
    nets.push_back(&nets_store[i]);
    opts.push_back(&opts_store[i]);
  }
  const auto xs_ptrs = step_ptrs(slab_xs);
  std::vector<double> losses(members);
  FusedLstm fused;
  const auto train_one = [&] {
    fused.train_batch(std::span(nets).first(1), std::span(slices).first(1),
                      xs_ptrs, slab_y, LossKind::kMae,
                      std::span(opts).first(1), std::span(losses).first(1));
  };

  // Group of one, on the calling thread: warm-up grows the scratch and
  // the Adam moments, then nothing.
  train_one();
  train_one();
  const std::uint64_t solo_before = Workspace::total_allocations();
  for (int i = 0; i < 3; ++i) train_one();
  EXPECT_EQ(Workspace::total_allocations(), solo_before)
      << "a warm group of one must not grow its thread's scratch";

  // The whole group, fanned out across the pool.
  const std::uint64_t a1 = cold_member_step(train_one).allocs;
  ASSERT_GT(a1, 0u);
  const std::uint64_t bound = member_threads() * a1;
  const std::uint64_t before = Workspace::total_allocations();
  for (std::uint64_t i = 0; i <= bound; ++i) {
    fused.train_batch(nets, slices, xs_ptrs, slab_y, LossKind::kMae, opts,
                      losses);
  }
  EXPECT_LE(Workspace::total_allocations() - before, bound)
      << "fused batches may grow a thread's scratch only on its first "
      << "member step";
}

TEST(NnFused, TelemetryCountsBatchesRowsAndMembers) {
  const std::uint64_t batches0 = pfdrl::nn::total_fused_batches();
  const std::uint64_t rows0 = pfdrl::nn::total_fused_rows();
  pfdrl::nn::note_fused_batch(3, 96);
  pfdrl::nn::note_fused_batch(11, 4);
  EXPECT_EQ(pfdrl::nn::total_fused_batches(), batches0 + 2);
  EXPECT_EQ(pfdrl::nn::total_fused_rows(), rows0 + 100);
  EXPECT_GE(pfdrl::nn::max_fused_members(), 11u);
}

}  // namespace
