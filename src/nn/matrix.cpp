#include "nn/matrix.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/kernels.hpp"

namespace pfdrl::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

void Matrix::fill(double v) noexcept {
  for (double& x : data_) x = v;
}

std::size_t Matrix::reshape(std::size_t rows, std::size_t cols) {
  const std::size_t old_cap = data_.capacity();
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
  const std::size_t new_cap = data_.capacity();
  return new_cap > old_cap ? (new_cap - old_cap) * sizeof(double) : 0;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

void Matrix::axpy(double alpha, const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  // Not kernels::axpy: `other` may legally alias *this here.
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

double Matrix::squared_norm() const noexcept {
  return kernels::dot(data_.data(), data_.data(), data_.size());
}

}  // namespace pfdrl::nn
