// The member train steps' scratch contract (docs/fused_training.md):
// a step leaves the slots its caller holds (the forecast trainer copies a
// step's inputs into them) and the cursor as it found them, training
// scratch is bounded by threads, not members, and steady-state steps are
// allocation-free. Every EXPECT below that compares doubles uses
// EXPECT_EQ. (The gradient math of each step is pinned by the
// finite-difference checks in nn_lstm_test, nn_gru_test and
// nn_dense_mlp_test; that members of a group never mix, by the
// trainer-level tests in fl_trainer_test and core_pipeline_test.)
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
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
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using pfdrl::nn::Activation;
using pfdrl::nn::Adam;
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

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at flat index " << i;
  }
}

constexpr std::size_t kF = 3;   // features per step
constexpr std::size_t kH = 10;  // hidden width (exercises j-tile tails)
constexpr std::size_t kT = 5;   // sequence length

/// Step pointers for a recurrent train step.
std::vector<const Matrix*> step_ptrs(const std::vector<Matrix>& xs) {
  std::vector<const Matrix*> ptrs;
  for (const Matrix& m : xs) ptrs.push_back(&m);
  return ptrs;
}

/// Runs `train(xs, y)` twice on twin networks: once on the caller's own
/// matrices, once on copies the caller holds in its thread's scratch —
/// the forecast trainer's layout. Both runs must give the same loss
/// (checked by the caller on the twins' parameters), and the step must
/// leave the caller's slots and the scratch cursor as it found them.
template <class Train>
void expect_caller_slots_kept(const std::vector<Matrix>& xs, const Matrix& y,
                              Train&& train, const char* what) {
  const double own = train(step_ptrs(xs), y, 0);
  Workspace& ws = pfdrl::nn::thread_scratch();
  ws.reset();
  std::vector<const Matrix*> held;
  for (const Matrix& x : xs) {
    Matrix& slot = ws.take(x.rows(), x.cols());
    std::copy(x.data().begin(), x.data().end(), slot.data().begin());
    held.push_back(&slot);
  }
  Matrix& held_y = ws.take(y.rows(), y.cols());
  std::copy(y.data().begin(), y.data().end(), held_y.data().begin());
  const std::size_t cursor = ws.cursor();
  const double in_scratch = train(held, held_y, 1);
  EXPECT_EQ(in_scratch, own) << what;
  EXPECT_EQ(ws.cursor(), cursor) << what << ": the step must rewind";
  for (std::size_t t = 0; t < xs.size(); ++t) {
    expect_bitwise_equal(held[t]->data(), xs[t].data(), what);
  }
  expect_bitwise_equal(held_y.data(), y.data(), what);
  ws.reset();
}

TEST(NnFused, StepsKeepCallerSlotsAndCursor) {
  Rng rng(1234);
  constexpr std::size_t kRows = 7;  // a row block plus leftover rows
  std::vector<Matrix> xs(kT, Matrix(kRows, kF));
  for (Matrix& m : xs) fill_random(m, rng);
  Matrix y(kRows, 1);
  fill_random(y, rng);
  {
    Rng init = rng.fork(1);
    const LstmRegressor base(kF, kH, 1, init);
    std::vector<LstmRegressor> twins(2, base);
    std::vector<Adam> opts(2, Adam(3e-3));
    expect_caller_slots_kept(
        xs, y,
        [&](std::span<const Matrix* const> in, const Matrix& target,
            std::size_t k) {
          return pfdrl::nn::lstm_train_step(twins[k], in, target,
                                            LossKind::kMae, opts[k]);
        },
        "lstm");
    expect_bitwise_equal(twins[0].parameters(), twins[1].parameters(),
                         "lstm params");
  }
  {
    Rng init = rng.fork(2);
    const GruRegressor base(kF, kH, 1, init);
    std::vector<GruRegressor> twins(2, base);
    std::vector<Adam> opts(2, Adam(3e-3));
    expect_caller_slots_kept(
        xs, y,
        [&](std::span<const Matrix* const> in, const Matrix& target,
            std::size_t k) {
          return pfdrl::nn::gru_train_step(twins[k], in, target,
                                           LossKind::kMae, opts[k]);
        },
        "gru");
    expect_bitwise_equal(twins[0].parameters(), twins[1].parameters(),
                         "gru params");
  }
  {
    Rng init = rng.fork(3);
    const Mlp base({kF, 12, 9, 1}, Activation::kRelu, Activation::kIdentity,
                   InitScheme::kHeNormal, init);
    std::vector<Mlp> twins(2, base);
    std::vector<Adam> opts(2, Adam(1e-3));
    expect_caller_slots_kept(
        {xs.front()}, y,
        [&](std::span<const Matrix* const> in, const Matrix& target,
            std::size_t k) {
          return pfdrl::nn::mlp_train_step(twins[k], *in.front(), target,
                                           LossKind::kHuber, opts[k]);
        },
        "mlp");
    expect_bitwise_equal(twins[0].parameters(), twins[1].parameters(),
                         "mlp params");
  }
}

// A batch may never read past its input rows.
TEST(NnFused, MlpStepRejectsInputShorterThanTargets) {
  Rng rng(77);
  Mlp net({2, 4, 1}, Activation::kRelu, Activation::kIdentity,
          InitScheme::kHeNormal, rng);
  Adam opt(1e-3);
  Matrix x(3, 2);
  Matrix y(4, 1);
  fill_random(x, rng);
  fill_random(y, rng);
  EXPECT_THROW(
      pfdrl::nn::mlp_train_step(net, x, y, LossKind::kMse, opt),
      std::invalid_argument);
}

// ---- Scratch bounds ----------------------------------------------------
// Every member step runs on its thread's nn::thread_scratch(), so what a
// group batch — one pool task per member, as the lockstep schedules run
// it — adds to the workspace totals is bounded by the threads that run
// members, never by the member count.

/// Workspace growth while `step` runs on a fresh thread, whose scratch
/// starts empty: exactly one cold member step (its thread's scratch is
/// released when the thread exits).
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

/// One group batch: member_step(i) for every member, one pool task each.
template <class Step>
void group_batch(std::size_t members, Step&& member_step) {
  pfdrl::util::ThreadPool::global().parallel_for(0, members, member_step);
}

/// Runs `group` (a group batch of many members) and checks that the
/// workspace bytes it adds stay within member_threads() cold member
/// steps of `solo` (one member's step).
template <class Solo, class Group>
void expect_scratch_bounded_by_threads(const char* what, Solo&& solo,
                                       Group&& group) {
  const Growth one = cold_member_step(solo);
  ASSERT_GT(one.bytes, 0u) << what;
  const std::uint64_t bytes0 = Workspace::total_bytes();
  for (int rep = 0; rep < 3; ++rep) group();
  EXPECT_LE(Workspace::total_bytes() - bytes0, member_threads() * one.bytes)
      << what << ": training scratch must be bounded by threads x one "
      << "member step (" << one.bytes << " bytes), not by the member count";
}

TEST(NnFused, ScratchIsBoundedByThreadsNotMembers) {
  // Few rows and wide layers, so a member's gradient span is a large
  // share of its step: scratch that grew with members (a group-wide
  // gradient arena) would overrun the bound.
  constexpr std::size_t kMembers = 24;
  constexpr std::size_t kBs = 4;
  constexpr std::size_t kWide = 32;
  Rng rng(2024);
  std::vector<Adam> opts(kMembers + 1, Adam(1e-3));
  // Every member reads the same (read-only) batch.
  std::vector<Matrix> xs(kT, Matrix(kBs, kF));
  for (Matrix& m : xs) fill_random(m, rng);
  const auto xs_ptrs = step_ptrs(xs);
  Matrix y(kBs, 1);
  fill_random(y, rng);

  {
    std::vector<LstmRegressor> nets;
    nets.reserve(kMembers + 1);
    for (std::size_t i = 0; i <= kMembers; ++i) {
      Rng init = rng.fork(i);
      nets.emplace_back(kF, kWide, 1, init);
    }
    const auto step = [&](std::size_t i) {
      pfdrl::nn::lstm_train_step(nets[i], xs_ptrs, y, LossKind::kMae, opts[i]);
    };
    expect_scratch_bounded_by_threads(
        "lstm", [&] { step(kMembers); },
        [&] { group_batch(kMembers, step); });
  }
  {
    std::vector<GruRegressor> nets;
    nets.reserve(kMembers + 1);
    for (std::size_t i = 0; i <= kMembers; ++i) {
      Rng init = rng.fork(100 + i);
      nets.emplace_back(kF, kWide, 1, init);
    }
    const auto step = [&](std::size_t i) {
      pfdrl::nn::gru_train_step(nets[i], xs_ptrs, y, LossKind::kMae, opts[i]);
    };
    expect_scratch_bounded_by_threads(
        "gru", [&] { step(kMembers); },
        [&] { group_batch(kMembers, step); });
  }
  {
    const std::vector<std::size_t> dims = {kF, 2 * kWide, kWide, 1};
    std::vector<Mlp> nets;
    nets.reserve(kMembers + 1);
    for (std::size_t i = 0; i <= kMembers; ++i) {
      Rng init = rng.fork(200 + i);
      nets.emplace_back(dims, Activation::kRelu, Activation::kIdentity,
                        InitScheme::kHeNormal, init);
    }
    const auto step = [&](std::size_t i) {
      pfdrl::nn::mlp_train_step(nets[i], xs[0], y, LossKind::kHuber, opts[i]);
    };
    expect_scratch_bounded_by_threads(
        "mlp", [&] { step(kMembers); },
        [&] { group_batch(kMembers, step); });
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
    const auto step = [&](std::size_t i) { agents[i]->learn(); };
    expect_scratch_bounded_by_threads(
        "dqn", [&] { step(kMembers); },
        [&] { group_batch(kMembers, step); });
  }
}

// Steady-state group batches allocate nothing once warm. Which pool
// thread runs which member varies from batch to batch, so a thread may
// still grow when it runs its first member step; the whole run may
// therefore grow by at most member_threads() cold member steps — and
// runs more batches than that bound, so even one allocation per batch
// fails. One member stepped on its caller: zero growth once warm.
TEST(NnFused, SteadyStateFusedBatchesAllocateNothing) {
  Rng rng(42);
  const std::size_t members = 6;
  const std::size_t bs = 7;
  std::vector<LstmRegressor> nets;
  nets.reserve(members);
  std::vector<Adam> opts(members, Adam(3e-3));
  for (std::size_t i = 0; i < members; ++i) {
    Rng init = rng.fork(i);
    nets.emplace_back(kF, kH, 1, init);
  }
  std::vector<std::vector<Matrix>> xs(members, std::vector<Matrix>(kT));
  std::vector<std::vector<const Matrix*>> xs_ptrs;
  std::vector<Matrix> ys(members, Matrix(bs, 1));
  for (std::size_t i = 0; i < members; ++i) {
    for (Matrix& m : xs[i]) {
      m = Matrix(bs, kF);
      fill_random(m, rng);
    }
    xs_ptrs.push_back(step_ptrs(xs[i]));
    fill_random(ys[i], rng);
  }
  const auto step = [&](std::size_t i) {
    pfdrl::nn::lstm_train_step(nets[i], xs_ptrs[i], ys[i], LossKind::kMae,
                               opts[i]);
  };
  const auto train_one = [&] { step(0); };

  // One member on the calling thread: warm-up grows the scratch and the
  // Adam moments, then nothing.
  train_one();
  train_one();
  const std::uint64_t solo_before = Workspace::total_allocations();
  for (int i = 0; i < 3; ++i) train_one();
  EXPECT_EQ(Workspace::total_allocations(), solo_before)
      << "a warm member step must not grow its thread's scratch";

  // The whole group, fanned out across the pool.
  const std::uint64_t a1 = cold_member_step(train_one).allocs;
  ASSERT_GT(a1, 0u);
  const std::uint64_t bound = member_threads() * a1;
  const std::uint64_t before = Workspace::total_allocations();
  for (std::uint64_t i = 0; i <= bound; ++i) group_batch(members, step);
  EXPECT_LE(Workspace::total_allocations() - before, bound)
      << "group batches may grow a thread's scratch only on its first "
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
