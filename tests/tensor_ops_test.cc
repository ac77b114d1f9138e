#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "tensor/tensor_ops.h"
#include "tests/vec_levels.h"

namespace ddpkit::kernels {
namespace {

using testing::AvailableLevels;
using testing::VecLevelGuard;

TEST(KernelsTest, ElementwiseAddSubMul) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {3});
  Tensor b = Tensor::FromVector({4, -5, 6}, {3});
  Tensor sum = Add(a, b);
  Tensor diff = Sub(a, b);
  Tensor prod = Mul(a, b);
  EXPECT_DOUBLE_EQ(sum.FlatAt(1), -3.0);
  EXPECT_DOUBLE_EQ(diff.FlatAt(1), 7.0);
  EXPECT_DOUBLE_EQ(prod.FlatAt(2), 18.0);
}

TEST(KernelsTest, ScaleAndAxpy) {
  Tensor a = Tensor::FromVector({1, 2}, {2});
  Tensor s = Scale(a, 3.0);
  EXPECT_DOUBLE_EQ(s.FlatAt(1), 6.0);
  Tensor y = Tensor::FromVector({10, 20}, {2});
  Axpy(2.0, a, &y);
  EXPECT_DOUBLE_EQ(y.FlatAt(0), 12.0);
  EXPECT_DOUBLE_EQ(y.FlatAt(1), 24.0);
  ScaleInPlace(&y, 0.5);
  EXPECT_DOUBLE_EQ(y.FlatAt(0), 6.0);
}

TEST(KernelsTest, ReluAndBackward) {
  Tensor x = Tensor::FromVector({-1, 0, 2}, {3});
  Tensor y = Relu(x);
  EXPECT_DOUBLE_EQ(y.FlatAt(0), 0.0);
  EXPECT_DOUBLE_EQ(y.FlatAt(2), 2.0);
  Tensor g = ReluBackward(Tensor::Ones({3}), x);
  EXPECT_DOUBLE_EQ(g.FlatAt(0), 0.0);
  EXPECT_DOUBLE_EQ(g.FlatAt(1), 0.0);  // x == 0: gradient 0
  EXPECT_DOUBLE_EQ(g.FlatAt(2), 1.0);
}

TEST(KernelsTest, MatMulAgainstHandComputed) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, {2, 2});
  Tensor c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At({0, 0}), 19.0);
  EXPECT_DOUBLE_EQ(c.At({0, 1}), 22.0);
  EXPECT_DOUBLE_EQ(c.At({1, 0}), 43.0);
  EXPECT_DOUBLE_EQ(c.At({1, 1}), 50.0);
}

TEST(KernelsTest, MatMulTransposedVariantsAgree) {
  Rng rng(21);
  Tensor a = Tensor::Randn({3, 4}, &rng);
  Tensor b = Tensor::Randn({4, 5}, &rng);
  Tensor reference = MatMul(a, b);
  Tensor via_trans_a = MatMulTransA(Transpose2D(a), b);
  Tensor via_trans_b = MatMulTransB(a, Transpose2D(b));
  // All three accumulate p in ascending order with mul-then-add.
  EXPECT_EQ(MaxAbsDiff(reference, via_trans_a), 0.0);
  EXPECT_EQ(MaxAbsDiff(reference, via_trans_b), 0.0);
}

/// The serial dot-product loop MatMulTransB ran before it was tiled: one
/// add chain per output, ascending p. Every level must match it bit for bit.
Tensor ReferenceMatMulTransB(const Tensor& a, const Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  Tensor out = Tensor::Empty({m, n});
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += pa[i * k + p] * pb[j * k + p];
      po[i * n + j] = acc;
    }
  }
  return out;
}

/// Randn values with signed zeros and denormals mixed in, and every third
/// row scaled down so that products underflow into the denormal range.
Tensor MatrixWithSpecials(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn({rows, cols}, &rng);
  float* p = t.data<float>();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (i % 7 == 3) p[i] = -0.0f;
    if (i % 11 == 5) p[i] = 0.0f;
    if (i % 13 == 1) p[i] = 3e-39f;
    if (i % 17 == 2) p[i] = -5e-40f;
    if ((i / cols) % 3 == 1) p[i] *= 1e-20f;
  }
  return t;
}

// {m, k, n}: k = 0, m = 1, n = 1, m % 4 != 0, n % 16 != 0, and the Linear
// shapes of the mlp (784/1024 -> 1024 -> 10 at batch 8) and transformer
// (128 tokens; 64 <-> 256, 16 x 16 attention) benchmark workloads.
const int64_t kMatMulTransBShapes[][3] = {
    {3, 0, 5},      {1, 37, 1},      {1, 1, 1},       {5, 19, 17},
    {7, 33, 33},    {2, 8, 48},      {8, 784, 1024},  {8, 1024, 1024},
    {8, 1024, 10},  {128, 64, 64},   {128, 64, 256},  {128, 256, 64},
    {16, 16, 16},
};

TEST(KernelsTest, MatMulTransBMatchesSerialLoopAtEveryLevel) {
  VecLevelGuard guard;
  for (const auto& shape : kMatMulTransBShapes) {
    const int64_t m = shape[0], k = shape[1], n = shape[2];
    const Tensor a = MatrixWithSpecials(m, k, 300 + m);
    const Tensor b = MatrixWithSpecials(n, k, 400 + n);
    const Tensor want = ReferenceMatMulTransB(a, b);
    for (const vec::Level level : AvailableLevels()) {
      vec::SetLevelForTesting(level);
      const Tensor got = MatMulTransB(a, b);
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "->" +
                   std::to_string(n) + " level=" + vec::LevelName(level));
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(0, std::memcmp(got.data<float>(), want.data<float>(),
                               want.nbytes()));
    }
  }
}

TEST(KernelsTest, MatMulTransBNonFiniteInBPropagates) {
  VecLevelGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(55);
  const Tensor a = Tensor::Randn({6, 20}, &rng);
  Tensor b = Tensor::Randn({35, 20}, &rng);
  // n = 35 is two full 16-column panels and a partial one; k = 20 is two
  // 8-wide transposes and a 4-wide scalar tail in the vector pack.
  b.data<float>()[0 * 20 + 0] = inf;    // full panel, first transpose
  b.data<float>()[5 * 20 + 7] = -inf;   // full panel, first transpose
  b.data<float>()[17 * 20 + 19] = nan;  // full panel, scalar p tail
  b.data<float>()[34 * 20 + 3] = nan;   // partial panel
  const Tensor want = ReferenceMatMulTransB(a, b);
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    const Tensor got = MatMulTransB(a, b);
    SCOPED_TRACE(vec::LevelName(level));
    int non_finite = 0;
    for (int64_t i = 0; i < want.numel(); ++i) {
      const bool finite = std::isfinite(want.data<float>()[i]);
      non_finite += finite ? 0 : 1;
      EXPECT_EQ(finite, std::isfinite(got.data<float>()[i])) << "at " << i;
      if (finite) {
        EXPECT_EQ(want.data<float>()[i], got.data<float>()[i]) << "at " << i;
      }
    }
    EXPECT_EQ(non_finite, 4 * 6);  // four columns, every row
  }
}

/// The seed's row loops for MatMul and MatMulTransA, which both paths must
/// match: each output row starts at +0.0f and takes one vec::Axpy per
/// nonzero coefficient, in ascending p. With trans_a, a is [k, m] and read
/// transposed.
Tensor ReferenceRowLoopMatMul(const Tensor& a, const Tensor& b,
                              bool trans_a) {
  const int64_t m = a.size(trans_a ? 1 : 0), k = a.size(trans_a ? 0 : 1);
  const int64_t n = b.size(1);
  Tensor out = Tensor::Empty({m, n});
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  for (int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    std::fill(orow, orow + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float av = trans_a ? pa[p * m + i] : pa[i * k + p];
      if (av == 0.0f) continue;
      vec::Axpy(av, pb + p * n, orow, n);
    }
  }
  return out;
}

/// Memcmp equality for every finite and infinite element, and NaN in the
/// same positions; a NaN's sign and payload are left open.
void ExpectSameBitsOrBothNan(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.shape(), got.shape());
  int64_t mismatches = 0, first = -1;
  for (int64_t i = 0; i < want.numel(); ++i) {
    const float w = want.data<float>()[i], g = got.data<float>()[i];
    const bool same = std::isnan(w) ? std::isnan(g)
                                    : std::memcmp(&w, &g, sizeof(float)) == 0;
    if (!same && mismatches++ == 0) first = i;
  }
  EXPECT_EQ(mismatches, 0) << "first at " << first;
}

// {m, k, n} beyond kMatMulTransBShapes: the mlp backward (grad_input
// 8×1024·1024×{784, 1024}; grad_weight to 1024×{784, 1024} at k = 8) and
// the transformer backward (128 tokens; 64 <-> 256 features).
const int64_t kBackwardShapes[][3] = {
    {8, 1024, 784}, {1024, 8, 784}, {1024, 8, 1024}, {128, 64, 64},
    {128, 256, 64}, {64, 128, 64},  {256, 128, 64},  {64, 128, 256},
};

// Both MatMul paths against the row loops, at every level: A with no
// zeros, ≈16% and ≈60% zeros (so the tile, the masked tile and the row
// loop each run), signed zeros and denormals throughout; B finite, or with
// ±inf and NaN in rows whose coefficient in A's row 0 is zero (in one
// middle row when A has no zeros).
TEST(KernelsTest, MatMulAndTransAMatchRowLoopAtEveryLevel) {
  VecLevelGuard guard;
  std::vector<std::array<int64_t, 3>> shapes;
  for (const auto& s : kMatMulTransBShapes) {
    shapes.push_back({s[0], s[1], s[2]});
  }
  for (const auto& s : kBackwardShapes) shapes.push_back({s[0], s[1], s[2]});
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  int tile_runs = 0, masked_runs = 0, row_loop_runs = 0;
  for (const auto& [m, k, n] : shapes) {
    for (const bool trans_a : {false, true}) {
      for (const int density : {0, 1, 2}) {
        for (const bool non_finite : {false, true}) {
          Tensor a = trans_a ? MatrixWithSpecials(k, m, 500 + m)
                             : MatrixWithSpecials(m, k, 500 + m);
          Tensor b = MatrixWithSpecials(k, n, 600 + n);
          float* pa = a.data<float>();
          int64_t zeros = 0;
          for (int64_t i = 0; i < a.numel(); ++i) {
            if (density == 0 && pa[i] == 0.0f) pa[i] = 0.75f;
            if (density == 1 && i % 11 == 5) pa[i] = 0.75f;
            if (density == 2 && i % 9 < 4) pa[i] = i % 2 == 0 ? 0.0f : -0.0f;
            zeros += pa[i] == 0.0f ? 1 : 0;
          }
          for (int64_t p = 0; non_finite && m > 0 && p < k; ++p) {
            const bool zero_in_row0 = pa[trans_a ? p * m : p] == 0.0f;
            if (!zero_in_row0 && !(density == 0 && p == k / 2)) continue;
            b.data<float>()[p * n + p % n] = specials[p % 3];
          }
          if (m * k >= 64) {
            const double frac = static_cast<double>(zeros) / (m * k);
            EXPECT_EQ(density == 2, frac >= 0.25) << frac;
          }
          tile_runs += zeros == 0 && m * k > 0 ? 1 : 0;
          masked_runs += zeros > 0 && 4 * zeros < m * k ? 1 : 0;
          row_loop_runs += 4 * zeros >= m * k && m * k > 0 ? 1 : 0;
          const Tensor want = ReferenceRowLoopMatMul(a, b, trans_a);
          for (const vec::Level level : AvailableLevels()) {
            vec::SetLevelForTesting(level);
            const Tensor got = trans_a ? MatMulTransA(a, b) : MatMul(a, b);
            SCOPED_TRACE(std::string(trans_a ? "MatMulTransA " : "MatMul ") +
                         std::to_string(m) + "x" + std::to_string(k) + "->" +
                         std::to_string(n) + " density=" +
                         std::to_string(density) + " non_finite=" +
                         std::to_string(non_finite) +
                         " level=" + vec::LevelName(level));
            ExpectSameBitsOrBothNan(want, got);
          }
        }
      }
    }
  }
  EXPECT_GT(tile_runs, 20);
  EXPECT_GT(masked_runs, 20);
  EXPECT_GT(row_loop_runs, 20);
}

TEST(KernelsTest, Transpose2D) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor t = Transpose2D(a);
  EXPECT_EQ(t.size(0), 3);
  EXPECT_EQ(t.size(1), 2);
  EXPECT_DOUBLE_EQ(t.At({2, 1}), 6.0);
  EXPECT_DOUBLE_EQ(t.At({0, 1}), 4.0);
}

TEST(KernelsTest, RowBroadcastAndSumRows) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor bias = Tensor::FromVector({10, 20}, {2});
  Tensor out = AddRowBroadcast(a, bias);
  EXPECT_DOUBLE_EQ(out.At({0, 0}), 11.0);
  EXPECT_DOUBLE_EQ(out.At({1, 1}), 24.0);
  Tensor sums = SumRows(a);
  EXPECT_DOUBLE_EQ(sums.FlatAt(0), 4.0);
  EXPECT_DOUBLE_EQ(sums.FlatAt(1), 6.0);
}

TEST(KernelsTest, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor input = Tensor::FromVector({1, 2, 3, 4}, {1, 1, 2, 2});
  Tensor weight = Tensor::Ones({1, 1, 1, 1});
  Tensor out = Conv2d(input, weight, Conv2dArgs{1, 0});
  EXPECT_LT(MaxAbsDiff(out, input), 1e-7);
}

TEST(KernelsTest, Conv2dHandComputed3x3) {
  // All-ones 3x3 kernel with padding 1: each output = sum of 3x3
  // neighborhood.
  Tensor input = Tensor::FromVector({1, 2, 3, 4, 5, 6, 7, 8, 9},
                                    {1, 1, 3, 3});
  Tensor weight = Tensor::Ones({1, 1, 3, 3});
  Tensor out = Conv2d(input, weight, Conv2dArgs{1, 1});
  EXPECT_DOUBLE_EQ(out.At({0, 0, 1, 1}), 45.0);  // full sum at center
  EXPECT_DOUBLE_EQ(out.At({0, 0, 0, 0}), 1 + 2 + 4 + 5);
}

TEST(KernelsTest, Conv2dStrideShrinksOutput) {
  Rng rng(4);
  Tensor input = Tensor::Randn({2, 3, 8, 8}, &rng);
  Tensor weight = Tensor::Randn({4, 3, 3, 3}, &rng);
  Tensor out = Conv2d(input, weight, Conv2dArgs{2, 1});
  EXPECT_EQ(out.size(0), 2);
  EXPECT_EQ(out.size(1), 4);
  EXPECT_EQ(out.size(2), 4);
  EXPECT_EQ(out.size(3), 4);
}

TEST(KernelsTest, AvgPoolAndGlobalPool) {
  Tensor input = Tensor::FromVector({1, 2, 3, 4}, {1, 1, 2, 2});
  Tensor pooled = AvgPool2x2(input);
  EXPECT_EQ(pooled.numel(), 1);
  EXPECT_DOUBLE_EQ(pooled.FlatAt(0), 2.5);
  Tensor gap = GlobalAvgPool(input);
  EXPECT_DOUBLE_EQ(gap.At({0, 0}), 2.5);
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  Rng rng(6);
  Tensor logits = Tensor::Randn({5, 7}, &rng);
  Tensor probs = Softmax(logits);
  for (int64_t i = 0; i < 5; ++i) {
    double row_sum = 0.0;
    for (int64_t j = 0; j < 7; ++j) {
      const double p = probs.At({i, j});
      EXPECT_GE(p, 0.0);
      row_sum += p;
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-5);
  }
}

TEST(KernelsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(8);
  Tensor logits = Tensor::Randn({4, 6}, &rng);
  Tensor lp = LogSoftmax(logits);
  Tensor p = Softmax(logits);
  for (int64_t i = 0; i < lp.numel(); ++i) {
    EXPECT_NEAR(lp.FlatAt(i), std::log(p.FlatAt(i)), 1e-4);
  }
}

TEST(KernelsTest, SoftmaxNumericallyStableForLargeLogits) {
  Tensor logits = Tensor::FromVector({1000.0f, 1001.0f}, {1, 2});
  Tensor p = Softmax(logits);
  EXPECT_FALSE(std::isnan(p.FlatAt(0)));
  EXPECT_NEAR(p.FlatAt(0) + p.FlatAt(1), 1.0, 1e-6);
}

TEST(KernelsTest, ArgMaxRows) {
  Tensor a = Tensor::FromVector({1, 5, 2, 9, 0, 3}, {2, 3});
  Tensor idx = ArgMaxRows(a);
  EXPECT_EQ(idx.data<int64_t>()[0], 1);
  EXPECT_EQ(idx.data<int64_t>()[1], 0);
}

TEST(KernelsTest, EmbeddingLookupAndBackward) {
  Tensor table = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {3, 2});
  Tensor idx = Tensor::FromVectorInt64({2, 0, 2}, {3});
  Tensor out = EmbeddingLookup(idx, table);
  EXPECT_DOUBLE_EQ(out.At({0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(out.At({1, 1}), 2.0);

  Tensor grad_out = Tensor::Ones({3, 2});
  Tensor grad_table = EmbeddingBackward(grad_out, idx, {3, 2});
  EXPECT_DOUBLE_EQ(grad_table.At({2, 0}), 2.0);  // index 2 hit twice
  EXPECT_DOUBLE_EQ(grad_table.At({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(grad_table.At({1, 0}), 0.0);
}

TEST(KernelsTest, SumAllMeanAll) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {4});
  EXPECT_DOUBLE_EQ(SumAll(a).Item(), 10.0);
  EXPECT_DOUBLE_EQ(MeanAll(a).Item(), 2.5);
}

TEST(KernelsTest, AllCloseAndMaxAbsDiff) {
  Tensor a = Tensor::FromVector({1, 2}, {2});
  Tensor b = Tensor::FromVector({1, 2.0001f}, {2});
  EXPECT_TRUE(AllClose(a, b, 1e-3, 1e-3));
  EXPECT_FALSE(AllClose(a, b, 1e-7, 1e-7));
  EXPECT_NEAR(MaxAbsDiff(a, b), 0.0001, 1e-5);

  // A NaN on either side, at any position, is a mismatch — including when
  // a larger finite difference sits in another ParallelReduce chunk.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor finite = Tensor::FromVector({1, 2}, {2});
  for (const Tensor& with_nan : {Tensor::FromVector({nan, 2}, {2}),
                                 Tensor::FromVector({1, nan}, {2})}) {
    EXPECT_TRUE(std::isnan(MaxAbsDiff(with_nan, finite)));
    EXPECT_TRUE(std::isnan(MaxAbsDiff(finite, with_nan)));
    EXPECT_TRUE(std::isnan(MaxAbsDiff(with_nan, with_nan)));
    EXPECT_FALSE(AllClose(with_nan, finite, 1.0, 1.0));
    EXPECT_FALSE(AllClose(finite, with_nan, 1.0, 1.0));
    EXPECT_FALSE(AllClose(with_nan, with_nan));
  }
  for (const int64_t at : {int64_t{5}, int64_t{60000}}) {
    Tensor big = Tensor::Zeros({70000});
    big.data<float>()[at] = nan;
    big.data<float>()[at == 5 ? 60000 : 5] = 3.0f;
    EXPECT_TRUE(std::isnan(MaxAbsDiff(big, Tensor::Zeros({70000}))));
    EXPECT_FALSE(AllClose(big, Tensor::Zeros({70000}), 1.0, 10.0));
  }
  // An infinity matches only itself.
  const Tensor pos_inf = Tensor::FromVector({inf}, {1});
  EXPECT_EQ(MaxAbsDiff(pos_inf, pos_inf), 0.0);
  EXPECT_TRUE(AllClose(pos_inf, pos_inf));
  EXPECT_FALSE(AllClose(pos_inf, Tensor::FromVector({-inf}, {1}), 1.0, 1.0));
  EXPECT_FALSE(AllClose(pos_inf, Tensor::FromVector({1e30f}, {1}), 1.0, 1.0));
  EXPECT_EQ(MaxAbsDiff(pos_inf, Tensor::FromVector({1e30f}, {1})), inf);
}

TEST(KernelsTest, GeluMatchesReferencePoints) {
  Tensor x = Tensor::FromVector({0.0f, 1.0f, -1.0f}, {3});
  Tensor y = Gelu(x);
  EXPECT_NEAR(y.FlatAt(0), 0.0, 1e-6);
  EXPECT_NEAR(y.FlatAt(1), 0.8412, 5e-3);
  EXPECT_NEAR(y.FlatAt(2), -0.1588, 5e-3);
}


// ---- Attention: one node for all heads against the per-head 2-D kernels ----

// Columns [h·dh, (h+1)·dh) of x [B, S, D] as a contiguous [B, S, dh] copy,
// and back.
Tensor HeadColumns(const Tensor& x, int64_t h, int64_t dh) {
  const int64_t rows = x.size(0) * x.size(1), dim = x.size(2);
  Tensor out = Tensor::Empty({x.size(0), x.size(1), dh});
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data<float>() + r * dh, x.data<float>() + r * dim + h * dh,
                static_cast<size_t>(dh) * sizeof(float));
  }
  return out;
}
void PutHeadColumns(const Tensor& part, int64_t h, Tensor* x) {
  const int64_t rows = x->size(0) * x->size(1), dim = x->size(2),
                dh = part.size(2);
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(x->data<float>() + r * dim + h * dh,
                part.data<float>() + r * dh,
                static_cast<size_t>(dh) * sizeof(float));
  }
}

struct AttentionResult {
  Tensor out, gq, gk, gv;
};

// The per-head path the multi-head transformer layer ran before one
// Attention node took every head: each head's columns copied out, then,
// per batch row, the single-head forward and backward bodies as plain 2-D
// kernel calls, the results written back into the head's columns (where
// the old path's zero-padded slice gradients summed to exactly these
// values, since no product output is −0).
AttentionResult PerHeadAttention(const Tensor& q, const Tensor& k,
                                 const Tensor& v, const Tensor& g,
                                 int64_t heads) {
  const int64_t batch = q.size(0), seq = q.size(1), dh = q.size(2) / heads;
  const double scale = 1.0 / std::sqrt(static_cast<double>(dh));
  AttentionResult r{Tensor::Empty(q.shape()), Tensor::Empty(q.shape()),
                    Tensor::Empty(q.shape()), Tensor::Empty(q.shape())};
  for (int64_t h = 0; h < heads; ++h) {
    const Tensor qh = HeadColumns(q, h, dh), kh = HeadColumns(k, h, dh),
                 vh = HeadColumns(v, h, dh), gh = HeadColumns(g, h, dh);
    Tensor out = Tensor::Empty(qh.shape()), gq = Tensor::Empty(qh.shape()),
           gk = Tensor::Empty(qh.shape()), gv = Tensor::Empty(qh.shape());
    for (int64_t b = 0; b < batch; ++b) {
      const Tensor qb = qh.Narrow(0, b, 1).Reshape({seq, dh});
      const Tensor kb = kh.Narrow(0, b, 1).Reshape({seq, dh});
      const Tensor vb = vh.Narrow(0, b, 1).Reshape({seq, dh});
      const Tensor gb = gh.Narrow(0, b, 1).Reshape({seq, dh});
      const Tensor p = Softmax(Scale(MatMulTransB(qb, kb), scale));
      out.Narrow(0, b, 1).Reshape({seq, dh}).CopyFrom(MatMul(p, vb));
      gv.Narrow(0, b, 1).Reshape({seq, dh}).CopyFrom(MatMulTransA(p, gb));
      const Tensor gp = MatMulTransB(gb, vb);
      Tensor ga = Tensor::Empty({seq, seq});
      const float* pp = p.data<float>();
      const float* pgp = gp.data<float>();
      float* pga = ga.data<float>();
      for (int64_t i = 0; i < seq; ++i) {
        double dot = 0.0;
        for (int64_t j = 0; j < seq; ++j) {
          dot += static_cast<double>(pgp[i * seq + j]) * pp[i * seq + j];
        }
        for (int64_t j = 0; j < seq; ++j) {
          pga[i * seq + j] = static_cast<float>(
              pp[i * seq + j] * (pgp[i * seq + j] - dot) * scale);
        }
      }
      gq.Narrow(0, b, 1).Reshape({seq, dh}).CopyFrom(MatMul(ga, kb));
      gk.Narrow(0, b, 1).Reshape({seq, dh}).CopyFrom(MatMulTransA(ga, qb));
    }
    PutHeadColumns(out, h, &r.out);
    PutHeadColumns(gq, h, &r.gq);
    PutHeadColumns(gk, h, &r.gk);
    PutHeadColumns(gv, h, &r.gv);
  }
  return r;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data<float>(), b.data<float>(), a.nbytes()) == 0;
}

// Every head count, sequence length (partial and full row tiles and score
// strips) and head width (partial and full column strips) gives the
// per-head kernels' bits, at every level and pool size. The sharp cases
// scale q up until most probabilities underflow to exactly 0, so the zero
// skip runs where the 2-D kernels took the row loop.
TEST(AttentionKernelTest, MatchesPerHeadKernelsBitForBit) {
  VecLevelGuard level_guard;
  const int previous_threads = ThreadPool::Global().num_threads();
  for (const int64_t heads : {1, 2, 4}) {
    for (const int64_t seq : {5, 16, 17, 33}) {
      for (const int64_t dh : {3, 16, 20}) {
        for (const bool sharp : {false, true}) {
          Rng rng(static_cast<uint64_t>(heads * 1000 + seq * 10 + dh));
          const std::vector<int64_t> shape = {2, seq, heads * dh};
          Tensor q = Tensor::Randn(shape, &rng);
          if (sharp) q = Scale(q, 40.0);
          const Tensor k = Tensor::Randn(shape, &rng);
          const Tensor v = Tensor::Randn(shape, &rng);
          const Tensor g = Tensor::Randn(shape, &rng);
          vec::SetLevelForTesting(vec::Level::kScalar);
          ThreadPool::SetNumThreads(1);
          const AttentionResult want = PerHeadAttention(q, k, v, g, heads);
          for (const vec::Level level : AvailableLevels()) {
            vec::SetLevelForTesting(level);
            for (const int threads : {1, 8}) {
              ThreadPool::SetNumThreads(threads);
              SCOPED_TRACE("heads=" + std::to_string(heads) +
                           " seq=" + std::to_string(seq) +
                           " dh=" + std::to_string(dh) +
                           " sharp=" + std::to_string(sharp) + " " +
                           vec::LevelName(level) + "/" +
                           std::to_string(threads));
              Tensor probs;
              const Tensor out = Attention(q, k, v, heads, &probs);
              const AttentionGrads got =
                  AttentionBackward(g, q, k, v, probs, heads);
              EXPECT_TRUE(SameBits(want.out, out));
              EXPECT_TRUE(SameBits(want.gq, got.q));
              EXPECT_TRUE(SameBits(want.gk, got.k));
              EXPECT_TRUE(SameBits(want.gv, got.v));
            }
          }
        }
      }
    }
  }
  ThreadPool::SetNumThreads(previous_threads);
}

}  // namespace
}  // namespace ddpkit::kernels
