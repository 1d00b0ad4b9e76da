#include "nn/matrix.hpp"

#include <gtest/gtest.h>

namespace pfdrl::nn {
namespace {

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (double x : m.data()) EXPECT_EQ(x, 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2);
  m.fill(7.0);
  EXPECT_EQ(m(1, 1), 7.0);
  m.zero();
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(Matrix, AddSubScale) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{10.0, 20.0}};
  a += b;
  EXPECT_EQ(a(0, 1), 22.0);
  a -= b;
  EXPECT_EQ(a(0, 1), 2.0);
  a *= 3.0;
  EXPECT_EQ(a(0, 0), 3.0);
}

TEST(Matrix, Axpy) {
  Matrix a{{1.0, 1.0}};
  const Matrix b{{2.0, 4.0}};
  a.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
}

TEST(Matrix, Apply) {
  Matrix m{{-1.0, 2.0}};
  m.apply([](double x) { return x * x; });
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 4.0);
}

TEST(Matrix, SquaredNorm) {
  Matrix m{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.squared_norm(), 25.0);
}

TEST(Matrix, Equality) {
  Matrix a{{1.0}};
  Matrix b{{1.0}};
  Matrix c{{2.0}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Matrix, ReshapeReusesCapacity) {
  Matrix m(4, 8);
  const std::size_t grown_first = m.reshape(8, 8);  // must grow
  EXPECT_GT(grown_first, 0u);
  EXPECT_EQ(m.rows(), 8u);
  EXPECT_EQ(m.cols(), 8u);
  const std::size_t cap = m.capacity();
  EXPECT_EQ(m.reshape(2, 3), 0u);  // shrink: buffer reused
  EXPECT_EQ(m.reshape(8, 8), 0u);  // back up within capacity: reused
  EXPECT_EQ(m.capacity(), cap);
}

}  // namespace
}  // namespace pfdrl::nn
