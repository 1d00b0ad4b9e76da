#include "nn/workspace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {
namespace {

TEST(Workspace, TakeReturnsRequestedShape) {
  Workspace ws;
  Matrix& a = ws.take(3, 4);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 4u);
  Matrix& b = ws.take(1, 7);
  EXPECT_EQ(b.cols(), 7u);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(ws.slots(), 2u);
}

TEST(Workspace, TakeSpanIsWritable) {
  Workspace ws;
  auto s = ws.take_span(5);
  ASSERT_EQ(s.size(), 5u);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  EXPECT_EQ(s[4], 4.0);
}

TEST(Workspace, ResetReusesSlotsWithoutAllocating) {
  Workspace ws;
  Matrix& slot0 = ws.take(2, 3);
  ws.take(4, 5);
  // Identical take sequence after reset: same slots, zero new heap work.
  const std::uint64_t allocs_before = Workspace::total_allocations();
  for (int cycle = 0; cycle < 10; ++cycle) {
    ws.reset();
    Matrix& a = ws.take(2, 3);
    Matrix& b = ws.take(4, 5);
    EXPECT_EQ(&a, &slot0);
    EXPECT_EQ(b.rows(), 4u);
  }
  EXPECT_EQ(Workspace::total_allocations(), allocs_before);
  EXPECT_EQ(ws.slots(), 2u);
}

TEST(Workspace, GrowthIsCountedOnce) {
  Workspace ws;
  const std::uint64_t allocs0 = Workspace::total_allocations();
  ws.take(8, 8);
  EXPECT_GT(Workspace::total_allocations(), allocs0);
  EXPECT_GT(ws.bytes(), 0u);
  const std::uint64_t allocs1 = Workspace::total_allocations();
  const std::size_t bytes1 = ws.bytes();
  ws.reset();
  ws.take(4, 4);  // smaller: reuses the slot's capacity
  EXPECT_EQ(Workspace::total_allocations(), allocs1);
  EXPECT_EQ(ws.bytes(), bytes1);
  ws.reset();
  ws.take(16, 16);  // larger: must grow, counted again
  EXPECT_GT(Workspace::total_allocations(), allocs1);
  EXPECT_GT(ws.bytes(), bytes1);
}

TEST(Workspace, SlotAddressesSurvivePoolGrowth) {
  Workspace ws;
  Matrix& a = ws.take(2, 2);
  double* data = a.row(0).data();
  a(0, 0) = 42.0;
  // Force the slot vector to reallocate many times over.
  for (int i = 0; i < 100; ++i) ws.take(1, 1);
  EXPECT_EQ(a(0, 0), 42.0);
  EXPECT_EQ(a.row(0).data(), data);
}

TEST(Workspace, DestructorReleasesTrackedBytes) {
  const std::uint64_t bytes0 = Workspace::total_bytes();
  {
    Workspace ws;
    ws.take(32, 32);
    EXPECT_GT(Workspace::total_bytes(), bytes0);
  }
  EXPECT_EQ(Workspace::total_bytes(), bytes0);
}

TEST(Workspace, MlpPredictMatchesAllocatingPredict) {
  util::Rng rng(41);
  Mlp net({4, 10, 10, 3}, Activation::kRelu, Activation::kIdentity,
          InitScheme::kHeNormal, rng);
  Matrix x(3, 4);
  for (double& v : x.data()) v = rng.normal();
  const Matrix expected = net.predict(x);
  Workspace ws;
  const Matrix& got = net.predict(x, ws);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], expected.data()[i]);
  }
}

TEST(Workspace, MlpPredictSteadyStateIsAllocationFree) {
  util::Rng rng(42);
  Mlp net({4, 16, 16, 2}, Activation::kRelu, Activation::kIdentity,
          InitScheme::kHeNormal, rng);
  Matrix x(1, 4);
  for (double& v : x.data()) v = rng.normal();
  Workspace ws;
  ws.reset();
  (void)net.predict(x, ws);  // warm-up sizes every slot
  const std::uint64_t allocs = Workspace::total_allocations();
  for (int i = 0; i < 100; ++i) {
    ws.reset();
    (void)net.predict(x, ws);
  }
  EXPECT_EQ(Workspace::total_allocations(), allocs);
}

TEST(Workspace, LstmPredictMatchesAllocatingPredict) {
  util::Rng rng(43);
  LstmRegressor net(3, 8, 1, rng);
  std::vector<Matrix> xs(5, Matrix(2, 3));
  for (auto& x : xs) {
    for (double& v : x.data()) v = rng.normal();
  }
  const Matrix expected = net.predict(xs);
  Workspace ws;
  const Matrix& got = net.predict(xs, ws);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], expected.data()[i]);
  }
  // Steady state: repeated predicts over the same shapes stop allocating.
  ws.reset();
  (void)net.predict(xs, ws);
  const std::uint64_t allocs = Workspace::total_allocations();
  for (int i = 0; i < 20; ++i) {
    ws.reset();
    (void)net.predict(xs, ws);
  }
  EXPECT_EQ(Workspace::total_allocations(), allocs);
}

TEST(Workspace, GruPredictMatchesAllocatingPredict) {
  util::Rng rng(44);
  GruRegressor net(3, 8, 1, rng);
  std::vector<Matrix> xs(5, Matrix(2, 3));
  for (auto& x : xs) {
    for (double& v : x.data()) v = rng.normal();
  }
  const Matrix expected = net.predict(xs);
  Workspace ws;
  const Matrix& got = net.predict(xs, ws);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], expected.data()[i]);
  }
  ws.reset();
  (void)net.predict(xs, ws);
  const std::uint64_t allocs = Workspace::total_allocations();
  for (int i = 0; i < 20; ++i) {
    ws.reset();
    (void)net.predict(xs, ws);
  }
  EXPECT_EQ(Workspace::total_allocations(), allocs);
}

}  // namespace
}  // namespace pfdrl::nn
