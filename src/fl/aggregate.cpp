#include "fl/aggregate.hpp"

#include <stdexcept>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pfdrl::fl {

namespace {

// out[i] = (((0 + in_0[i]) + in_1[i]) + ...) * (1 / K) for i < len: one
// accumulator per element, inputs added in the order given. The AVX2
// loop runs 16 elements (four ymm accumulators) per pass; its lanes are
// independent elements with exactly that add sequence, so it is bitwise
// the scalar loop, which also finishes the last len mod 16 elements.
// Every input is read at element i before out[i] is written, so out may
// alias an input.
void average_prefix(std::span<const std::span<const double>> inputs,
                    std::size_t len, double* out) noexcept {
  const double inv = 1.0 / static_cast<double>(inputs.size());
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256d vinv = _mm256_set1_pd(inv);
  for (; i + 16 <= len; i += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = a0, a2 = a0, a3 = a0;
    for (const auto& in : inputs) {
      const double* p = in.data() + i;
      a0 = _mm256_add_pd(a0, _mm256_loadu_pd(p));
      a1 = _mm256_add_pd(a1, _mm256_loadu_pd(p + 4));
      a2 = _mm256_add_pd(a2, _mm256_loadu_pd(p + 8));
      a3 = _mm256_add_pd(a3, _mm256_loadu_pd(p + 12));
    }
    _mm256_storeu_pd(out + i, _mm256_mul_pd(a0, vinv));
    _mm256_storeu_pd(out + i + 4, _mm256_mul_pd(a1, vinv));
    _mm256_storeu_pd(out + i + 8, _mm256_mul_pd(a2, vinv));
    _mm256_storeu_pd(out + i + 12, _mm256_mul_pd(a3, vinv));
  }
#endif
  for (; i < len; ++i) {
    double sum = 0.0;
    for (const auto& in : inputs) sum += in[i];
    out[i] = sum * inv;
  }
}

}  // namespace

void fedavg(std::span<const std::span<const double>> inputs,
            std::span<double> out) {
  if (inputs.empty()) throw std::invalid_argument("fedavg: no inputs");
  for (const auto& in : inputs) {
    if (in.size() != out.size()) {
      throw std::invalid_argument("fedavg: size mismatch");
    }
  }
  average_prefix(inputs, out.size(), out.data());
}

void fedavg_prefix(std::span<const std::span<const double>> inputs,
                   std::size_t prefix_len, std::span<double> out) {
  if (inputs.empty()) throw std::invalid_argument("fedavg_prefix: no inputs");
  if (prefix_len > out.size()) {
    throw std::invalid_argument("fedavg_prefix: prefix exceeds output");
  }
  for (const auto& in : inputs) {
    if (in.size() < prefix_len) {
      throw std::invalid_argument("fedavg_prefix: input shorter than prefix");
    }
  }
  average_prefix(inputs, prefix_len, out.data());
}

}  // namespace pfdrl::fl
