// First-order optimizers operating on flat parameter/gradient spans.
// Layers expose their parameters as contiguous slices of a per-model flat
// buffer (see mlp.hpp), so one optimizer instance serves a whole network
// and keeps its slot state aligned with parameter indices — which is what
// makes the PFDRL base/personal layer split straightforward: averaging a
// prefix of the flat buffer averages exactly the base layers.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pfdrl::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// params[i] -= update derived from grads[i]. Sizes must match the size
  /// passed at construction.
  virtual void step(std::span<double> params, std::span<const double> grads) = 0;
  /// Reset internal state (moments); used when a model's parameters are
  /// replaced wholesale by a federated aggregate.
  virtual void reset() = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Optimizer> clone() const = 0;

  [[nodiscard]] double learning_rate() const noexcept { return lr_; }
  void set_learning_rate(double lr) noexcept { lr_ = lr; }

 protected:
  explicit Optimizer(double lr) noexcept : lr_(lr) {}
  double lr_;
};

/// Plain stochastic gradient descent (the paper's DSGD local step).
class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr) noexcept : Optimizer(lr) {}
  void step(std::span<double> params, std::span<const double> grads) override;
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "sgd"; }
  [[nodiscard]] std::unique_ptr<Optimizer> clone() const override {
    return std::make_unique<Sgd>(lr_);
  }
};

/// Serializable Adam moment state (see Adam::capture_state). `m` and `v`
/// are empty before the first step; afterwards both match the parameter
/// count.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;
  long t = 0;
};

/// Adam (Kingma & Ba). Default hyperparameters.
class Adam final : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8) noexcept
      : Optimizer(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  void step(std::span<double> params, std::span<const double> grads) override;
  void reset() override {
    m_.clear();
    v_.clear();
    t_ = 0;
  }

  /// Snapshot / restore the moment vectors and step count, so a resumed
  /// run continues the bias-corrected updates bitwise instead of cold-
  /// starting the moments (which acts as an unplanned warm restart of
  /// the learning-rate schedule).
  [[nodiscard]] AdamState capture_state() const { return {m_, v_, t_}; }
  void restore_state(AdamState state) {
    if (state.m.size() != state.v.size()) {
      throw std::invalid_argument("Adam: moment size mismatch");
    }
    m_ = std::move(state.m);
    v_ = std::move(state.v);
    t_ = state.t;
  }
  [[nodiscard]] std::string name() const override { return "adam"; }
  [[nodiscard]] std::unique_ptr<Optimizer> clone() const override {
    return std::make_unique<Adam>(lr_, beta1_, beta2_, eps_);
  }

 private:
  double beta1_, beta2_, eps_;
  std::vector<double> m_, v_;
  long t_ = 0;
};

}  // namespace pfdrl::nn
