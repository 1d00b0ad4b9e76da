// Data-race stress for the member train steps: four lockstep groups at
// once on a 4-worker pool — one group task per worker, as the DFL and EMS
// rounds drive them — each running one batch of rl::DqnAgent::learn,
// nn::lstm_train_step and nn::mlp_train_step as one pool task per member,
// so member steps land on whichever thread picks them up and run on that
// thread's nn::thread_scratch(). Built with -fsanitize=thread (see
// tests/CMakeLists.txt); a clean exit 0 is the pass signal. Every
// repetition must reproduce, bitwise, the same members stepped one by
// one, so the checks double as a shared-scratch detector when the binary
// is run without TSan.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "nn/fused.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/dqn.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pfdrl;

constexpr std::size_t kGroups = 4;
constexpr std::size_t kMembers = 5;
constexpr std::size_t kRows = 8;  // per member
constexpr std::size_t kSteps = 4;
constexpr std::size_t kFeatures = 3;
constexpr std::size_t kHidden = 8;
constexpr int kReps = 16;

rl::DqnConfig dqn_config() {
  rl::DqnConfig cfg;
  cfg.state_dim = 5;
  cfg.hidden = {16, 16};
  cfg.replay_capacity = 48;
  cfg.batch_size = 16;
  cfg.target_replace_every = 3;  // syncs, and so cache misses, every few reps
  return cfg;
}

rl::Transition transition(util::Rng& rng) {
  rl::Transition tr;
  for (std::size_t k = 0; k < dqn_config().state_dim; ++k) {
    tr.state.push_back(rng.normal());
    tr.next_state.push_back(rng.normal());
  }
  tr.action = static_cast<int>(rng.uniform_int(0, 2));
  tr.reward = rng.uniform(-1.0, 1.0);
  tr.terminal = rng.uniform() < 0.1;
  return tr;
}

void fill(nn::Matrix& m, util::Rng& rng) {
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
}

/// One lockstep group: its members' networks and optimizers, and each
/// member's own batch (kRows rows).
struct Group {
  std::vector<std::unique_ptr<rl::DqnAgent>> agents;
  std::vector<nn::LstmRegressor> lstms;
  std::vector<nn::Mlp> mlps;
  std::vector<nn::Adam> lstm_opts, mlp_opts;
  std::vector<std::vector<nn::Matrix>> xs;  // per member, per step
  std::vector<nn::Matrix> ys, mlp_xs;       // per member
  std::vector<double> dqn_loss, lstm_loss, mlp_loss;

  explicit Group(std::size_t g)
      : lstm_opts(kMembers, nn::Adam(3e-3)),
        mlp_opts(kMembers, nn::Adam(1e-3)),
        xs(kMembers,
           std::vector<nn::Matrix>(kSteps, nn::Matrix(kRows, kFeatures))),
        ys(kMembers, nn::Matrix(kRows, 1)),
        mlp_xs(kMembers, nn::Matrix(kRows, kFeatures)),
        dqn_loss(kMembers),
        lstm_loss(kMembers),
        mlp_loss(kMembers) {
    util::Rng rng(1000 + g);
    lstms.reserve(kMembers);
    mlps.reserve(kMembers);
    for (std::size_t i = 0; i < kMembers; ++i) {
      rl::DqnConfig cfg = dqn_config();
      cfg.seed = 50 + g;  // one draw per group, as federated peers share
      cfg.exploration_seed = 100 * g + i + 1;
      agents.push_back(std::make_unique<rl::DqnAgent>(cfg));
      for (int t = 0; t < 32; ++t) agents.back()->remember(transition(rng));
      util::Rng init = rng.fork(i);
      lstms.emplace_back(kFeatures, kHidden, 1, init);
      mlps.emplace_back(std::vector<std::size_t>{kFeatures, 12, 1},
                        nn::Activation::kRelu, nn::Activation::kIdentity,
                        nn::InitScheme::kHeNormal, init);
      for (nn::Matrix& m : xs[i]) fill(m, rng);
      fill(ys[i], rng);
      fill(mlp_xs[i], rng);
    }
  }

  /// Member i's steps: one DQN learn step, one LSTM and one MLP batch.
  void step(std::size_t i) {
    dqn_loss[i] = agents[i]->learn();
    std::vector<const nn::Matrix*> steps;
    for (const nn::Matrix& m : xs[i]) steps.push_back(&m);
    lstm_loss[i] = nn::lstm_train_step(lstms[i], steps, ys[i],
                                       nn::LossKind::kMae, lstm_opts[i]);
    mlp_loss[i] = nn::mlp_train_step(mlps[i], mlp_xs[i], ys[i],
                                     nn::LossKind::kHuber, mlp_opts[i]);
  }

  /// One repetition as one group batch: a pool task per member.
  void train_fused(std::uint64_t rep) {
    push(rep);
    util::ThreadPool::global().parallel_for(
        0, kMembers, [&](std::size_t i) { step(i); });
  }

  /// The same repetition with the members stepped one by one.
  void train_alone(std::uint64_t rep) {
    push(rep);
    for (std::size_t i = 0; i < kMembers; ++i) step(i);
  }

 private:
  /// A fresh transition per agent per repetition (pushes invalidate
  /// cached bootstrap rows), the same in both copies.
  void push(std::uint64_t rep) {
    util::Rng rng(7000 + rep);
    for (auto& a : agents) a->remember(transition(rng));
  }
};

bool same(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Every member's losses and parameters bitwise equal across the copies.
bool matches(const Group& fused, const Group& alone) {
  if (!same(fused.dqn_loss, alone.dqn_loss) ||
      !same(fused.lstm_loss, alone.lstm_loss) ||
      !same(fused.mlp_loss, alone.mlp_loss)) {
    return false;
  }
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (!same(fused.agents[i]->network().parameters(),
              alone.agents[i]->network().parameters()) ||
        !same(fused.lstms[i].parameters(), alone.lstms[i].parameters()) ||
        !same(fused.mlps[i].parameters(), alone.mlps[i].parameters())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  // 4 workers regardless of the host: one group task per worker, with
  // the groups' member steps stealing across all of them. Must precede
  // the first ThreadPool::global() touch.
  util::ThreadPool::set_global_workers(4);
  util::ThreadPool& pool = util::ThreadPool::global();

  std::vector<Group> fused, alone;
  for (std::size_t g = 0; g < kGroups; ++g) {
    fused.emplace_back(g);
    alone.emplace_back(g);
  }
  int checked = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    pool.parallel_for(0, kGroups, [&](std::size_t g) {
      fused[g].train_fused(static_cast<std::uint64_t>(rep));
    });
    for (std::size_t g = 0; g < kGroups; ++g) {
      alone[g].train_alone(static_cast<std::uint64_t>(rep));
      if (!matches(fused[g], alone[g])) {
        std::fprintf(stderr,
                     "tsan_fused_stress: group %zu diverged from its "
                     "members stepped one by one at repetition %d\n",
                     g, rep);
        return 1;
      }
      ++checked;
    }
  }
  std::printf("tsan_fused_stress: %d concurrent group repetitions "
              "(DQN, LSTM, MLP) matched members stepped one by one — OK\n",
              checked);
  return 0;
}
