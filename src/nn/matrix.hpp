// Dense row-major matrix: the storage every nn slab, batch and workspace
// slot uses, with axpy-style updates and elementwise maps. The products
// live in the row-tiled kernels (nn/kernels.hpp) that nn/fused.hpp and
// nn/dense.hpp drive.
//
// Double precision throughout: the federated averaging math (Eq. 2/7 in
// the paper) is sensitive to accumulation order, and doubles keep the
// deterministic chunked reductions well below test tolerances.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace pfdrl::nn {

class Matrix {
 public:
  Matrix() = default;
  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);
  Matrix(std::size_t rows, std::size_t cols, double fill);
  /// From nested initializer list (row major); all rows must have equal
  /// length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  void fill(double v) noexcept;
  void zero() noexcept { fill(0.0); }

  /// Change geometry in place, reusing the existing heap buffer whenever
  /// its capacity suffices (the capacity never shrinks). Element values
  /// after a reshape are unspecified — callers must fully overwrite.
  /// Returns the number of heap bytes newly acquired (0 when the buffer
  /// was reused), which is what nn::Workspace folds into its process-wide
  /// growth counters.
  std::size_t reshape(std::size_t rows, std::size_t cols);
  /// Heap capacity in elements (>= size()).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return data_.capacity();
  }

  /// this += other (shapes must match).
  Matrix& operator+=(const Matrix& other);
  /// this -= other (shapes must match).
  Matrix& operator-=(const Matrix& other);
  /// this *= scalar.
  Matrix& operator*=(double s) noexcept;
  /// this += alpha * other (shapes must match).
  void axpy(double alpha, const Matrix& other);

  /// Elementwise map in place. The functor is a template parameter so the
  /// per-element call inlines — activation kernels dispatch on the
  /// activation kind once per matrix, not once per element through a
  /// type-erased indirection. (A std::function overload used to exist;
  /// every call site binds a concrete lambda, so it was deleted.)
  template <class F>
  void apply(F&& f) {
    for (double& x : data_) x = f(x);
  }

  /// Frobenius norm squared.
  [[nodiscard]] double squared_norm() const noexcept;

  friend bool operator==(const Matrix& a, const Matrix& b) noexcept = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pfdrl::nn
