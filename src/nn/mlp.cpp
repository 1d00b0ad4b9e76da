#include "nn/mlp.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/workspace.hpp"

namespace pfdrl::nn {

Mlp::Mlp(std::vector<std::size_t> dims, Activation hidden_act,
         Activation output_act, InitScheme scheme, util::Rng& rng)
    : dims_(std::move(dims)), hidden_act_(hidden_act), output_act_(output_act) {
  if (dims_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output dims");
  }
  for (std::size_t d : dims_) {
    if (d == 0) throw std::invalid_argument("Mlp: zero-width layer");
  }
  offsets_.resize(num_layers() + 1);
  offsets_[0] = 0;
  for (std::size_t i = 0; i < num_layers(); ++i) {
    offsets_[i + 1] = offsets_[i] + dense_param_count(dims_[i], dims_[i + 1]);
  }
  params_.assign(offsets_.back(), 0.0);
  for (std::size_t i = 0; i < num_layers(); ++i) {
    dense_init(layer_parameters(i), dims_[i], dims_[i + 1], scheme, rng);
  }
}

void Mlp::set_parameters(std::span<const double> values) {
  if (values.size() != params_.size()) {
    throw std::invalid_argument("Mlp::set_parameters: size mismatch");
  }
  std::copy(values.begin(), values.end(), params_.begin());
}

Matrix Mlp::predict(const Matrix& x) const {
  Workspace ws;
  return predict(x, ws);
}

const Matrix& Mlp::predict(const Matrix& x, Workspace& ws) const {
  assert(x.cols() == input_dim());
  const Matrix* cur = &x;
  for (std::size_t i = 0; i < num_layers(); ++i) {
    Matrix& y = ws.take(x.rows(), dims_[i + 1]);
    dense_forward(layer_parameters(i), dims_[i], dims_[i + 1], *cur,
                  layer_act(i), y);
    cur = &y;
  }
  return *cur;
}

bool Mlp::same_architecture(const Mlp& other) const noexcept {
  return dims_ == other.dims_ && hidden_act_ == other.hidden_act_ &&
         output_act_ == other.output_act_;
}

}  // namespace pfdrl::nn
