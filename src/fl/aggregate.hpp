// Federated parameter aggregation primitives (the paper's Eq. 2 / Alg. 1
// averaging step, and the Eq. 7 base-layer variant used by PFDRL).
//
// Each output element is one accumulator that adds the inputs in the
// order given, then scales by 1/K. The mean is order-independent only up
// to floating-point associativity, so the exchange engine fixes the
// order: contributions in ascending sender order, the receiver's own
// payload at its sorted position (docs/robustness.md). Receivers with
// the same accepted contributions therefore reach the same bits, and the
// engine computes that average once for all of them.
#pragma once

#include <cstddef>
#include <span>

namespace pfdrl::fl {

/// Uniform FedAvg: out = mean of all inputs. All spans must share one
/// size; `inputs` must be non-empty. out may alias inputs[i].
void fedavg(std::span<const std::span<const double>> inputs,
            std::span<double> out);

/// Average only the prefix [0, prefix_len) of each vector (PFDRL base
/// layers); the suffix of `out` is left untouched (personalization
/// layers stay local, Eq. 8).
void fedavg_prefix(std::span<const std::span<const double>> inputs,
                   std::size_t prefix_len, std::span<double> out);

}  // namespace pfdrl::fl
