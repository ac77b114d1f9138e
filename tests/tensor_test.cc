#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace ddpkit {
namespace {

TEST(TensorTest, UndefinedByDefault) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, ZerosShapeAndContents) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(1), 3);
  EXPECT_TRUE(t.is_contiguous());
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.FlatAt(i), 0.0);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::Full({4}, 2.5);
  for (int64_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t.FlatAt(i), 2.5);
  Tensor ones = Tensor::Ones({3});
  for (int64_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(ones.FlatAt(i), 1.0);
}

TEST(TensorTest, FromVectorRoundTrip) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_DOUBLE_EQ(t.At({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(t.At({0, 2}), 3.0);
  EXPECT_DOUBLE_EQ(t.At({1, 0}), 4.0);
  EXPECT_DOUBLE_EQ(t.At({1, 2}), 6.0);
}

TEST(TensorTest, SetAndAt) {
  Tensor t = Tensor::Zeros({2, 2});
  t.Set({1, 0}, 7.0);
  EXPECT_DOUBLE_EQ(t.At({1, 0}), 7.0);
  EXPECT_DOUBLE_EQ(t.FlatAt(2), 7.0);
}

TEST(TensorTest, CopySemanticsAreAliasing) {
  Tensor a = Tensor::Zeros({3});
  Tensor b = a;  // aliasing handle
  b.Set({0}, 9.0);
  EXPECT_DOUBLE_EQ(a.At({0}), 9.0);
  EXPECT_TRUE(a.is_same(b));
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Full({3}, 1.0);
  Tensor b = a.Clone();
  b.Set({0}, 5.0);
  EXPECT_DOUBLE_EQ(a.At({0}), 1.0);
  EXPECT_FALSE(a.is_same(b));
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor b = a.Reshape({4});
  b.Set({3}, 10.0);
  EXPECT_DOUBLE_EQ(a.At({1, 1}), 10.0);
}

TEST(TensorTest, NarrowViewsWriteThrough) {
  Tensor a = Tensor::Zeros({10});
  Tensor view = a.Narrow(0, 3, 4);
  EXPECT_EQ(view.numel(), 4);
  view.Fill(2.0);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.FlatAt(i), (i >= 3 && i < 7) ? 2.0 : 0.0);
  }
}

TEST(TensorTest, NarrowInnerDimIsNonContiguous) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor col = a.Narrow(1, 1, 2);  // rows x cols[1..2]
  EXPECT_EQ(col.numel(), 4);
  EXPECT_FALSE(col.is_contiguous());
  EXPECT_DOUBLE_EQ(col.FlatAt(0), 2.0);
  EXPECT_DOUBLE_EQ(col.FlatAt(1), 3.0);
  EXPECT_DOUBLE_EQ(col.FlatAt(2), 5.0);
  EXPECT_DOUBLE_EQ(col.FlatAt(3), 6.0);
  Tensor packed = col.Contiguous();
  EXPECT_TRUE(packed.is_contiguous());
  EXPECT_DOUBLE_EQ(packed.FlatAt(3), 6.0);
}

TEST(TensorTest, SelectRemovesLeadingDim) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {3, 2});
  Tensor row = a.Select(1);
  EXPECT_EQ(row.dim(), 1);
  EXPECT_EQ(row.numel(), 2);
  EXPECT_DOUBLE_EQ(row.FlatAt(0), 3.0);
  EXPECT_DOUBLE_EQ(row.FlatAt(1), 4.0);
}

TEST(TensorTest, CopyFromMatchesValues) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {3});
  Tensor b = Tensor::Zeros({3});
  b.CopyFrom(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(b.FlatAt(i), a.FlatAt(i));
}

TEST(TensorTest, CastToFloat64AndBack) {
  Tensor a = Tensor::FromVector({1.5, -2.25}, {2});
  Tensor d = a.Cast(DType::kFloat64);
  EXPECT_EQ(d.dtype(), DType::kFloat64);
  EXPECT_DOUBLE_EQ(d.FlatAt(1), -2.25);
  Tensor f = d.Cast(DType::kFloat32);
  EXPECT_DOUBLE_EQ(f.FlatAt(0), 1.5);
}

TEST(TensorTest, Int64Tensor) {
  Tensor t = Tensor::FromVectorInt64({5, -7, 11}, {3});
  EXPECT_EQ(t.dtype(), DType::kInt64);
  EXPECT_DOUBLE_EQ(t.FlatAt(1), -7.0);
  EXPECT_EQ(t.data<int64_t>()[2], 11);
}

TEST(TensorTest, RandnDeterministicGivenSeed) {
  Rng rng1(5), rng2(5);
  Tensor a = Tensor::Randn({16}, &rng1);
  Tensor b = Tensor::Randn({16}, &rng2);
  for (int64_t i = 0; i < 16; ++i) EXPECT_EQ(a.FlatAt(i), b.FlatAt(i));
}

TEST(TensorTest, GradLifecycle) {
  Tensor p = Tensor::Zeros({4});
  EXPECT_FALSE(p.grad().defined());
  p.AccumulateGrad(Tensor::Full({4}, 2.0));
  ASSERT_TRUE(p.grad().defined());
  EXPECT_DOUBLE_EQ(p.grad().FlatAt(0), 2.0);
  p.AccumulateGrad(Tensor::Full({4}, 3.0));
  EXPECT_DOUBLE_EQ(p.grad().FlatAt(0), 5.0);
  p.ZeroGrad();
  EXPECT_DOUBLE_EQ(p.grad().FlatAt(0), 0.0);
}

// ---- Write-first accumulation after ZeroGrad -------------------------------

// A gradient of ±0, denormals, ±inf, NaNs of both signs and plain values.
Tensor SpecialGrad() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  return Tensor::FromVector({-0.0f, 0.0f, 1e-40f, -3e-39f, inf, -inf, nan,
                             -nan, 1.5f, -2.25f, 3e38f, -1e-30f},
                            {12});
}

void ExpectBitEqual(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.numel(), got.numel());
  for (int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(0, std::memcmp(want.data<float>() + i, got.data<float>() + i,
                             sizeof(float)))
        << "i=" << i << " want " << want.data<float>()[i] << " got "
        << got.data<float>()[i];
  }
}

// What the fill-then-add ZeroGrad left: explicit zeros, then an add.
Tensor ZeroThenAdd(const Tensor& g) {
  Tensor q = Tensor::Zeros({g.numel()});
  q.AccumulateGrad(Tensor::Full({g.numel()}, 9.0));
  q.grad().Zero();
  q.AccumulateGrad(g);
  return q.grad();
}

TEST(TensorGradTest, AccumulateAfterZeroGradHasTheBitsOfAddingIntoZeros) {
  const Tensor g = SpecialGrad();
  const Tensor want = ZeroThenAdd(g);
  EXPECT_TRUE(std::signbit(g.data<float>()[0]));
  EXPECT_FALSE(std::signbit(want.data<float>()[0]));  // −0 lands as +0
  Tensor p = Tensor::Zeros({12});
  p.AccumulateGrad(Tensor::Full({12}, 7.0));
  p.ZeroGrad();
  p.AccumulateGrad(g);
  ExpectBitEqual(want, p.grad());
  // A parameter's first gradient is stored the same way.
  Tensor fresh = Tensor::Zeros({12});
  fresh.AccumulateGrad(g);
  ExpectBitEqual(want, fresh.grad());
}

TEST(TensorGradTest, SecondAccumulateAdds) {
  Tensor p = Tensor::Zeros({3});
  p.AccumulateGrad(Tensor::Full({3}, 7.0));
  p.ZeroGrad();
  p.AccumulateGrad(Tensor::FromVector({1.0f, -0.0f, 2.0f}, {3}));
  p.AccumulateGrad(Tensor::FromVector({0.5f, -0.0f, -2.0f}, {3}));
  ExpectBitEqual(Tensor::FromVector({1.5f, 0.0f, 0.0f}, {3}), p.grad());
}

TEST(TensorGradTest, ReadingAStaleGradientZeroFillsItsStorage) {
  Tensor p = Tensor::Zeros({4});
  p.AccumulateGrad(Tensor::Full({4}, 5.0));
  Tensor held = p.grad();
  p.ZeroGrad();
  // The held handle keeps its values until the gradient is next read or
  // written (the ZeroGrad contract; the fill-then-add ZeroGrad zeroed it).
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(held.FlatAt(i), 5.0);
  Tensor read = p.grad();
  EXPECT_TRUE(read.data<float>() == held.data<float>());
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(read.FlatAt(i), 0.0);
    EXPECT_EQ(held.FlatAt(i), 0.0);  // the zeros are in the shared storage
  }
  // Once filled, the gradient is live: the next accumulation adds.
  p.AccumulateGrad(Tensor::Full({4}, 2.0));
  EXPECT_EQ(p.grad().FlatAt(0), 2.0);
}

TEST(TensorGradTest, SetGradClearsTheStaleMark) {
  Tensor p = Tensor::Zeros({2});
  p.AccumulateGrad(Tensor::Full({2}, 5.0));
  p.ZeroGrad();
  p.set_grad(Tensor::Full({2}, 3.0));
  EXPECT_EQ(p.grad().FlatAt(0), 3.0);  // not zero-filled
  p.AccumulateGrad(Tensor::Full({2}, 1.0));
  EXPECT_EQ(p.grad().FlatAt(1), 4.0);  // added, not stored
}

TEST(TensorGradTest, ZeroGradWithoutAGradientIsANoOp) {
  Tensor p = Tensor::Zeros({2});
  p.ZeroGrad();
  EXPECT_FALSE(p.grad().defined());
  p.AccumulateGrad(Tensor::Full({2}, 1.5));
  EXPECT_EQ(p.grad().FlatAt(0), 1.5);
}

TEST(TensorGradTest, ViewsCarryNoGradientState) {
  Tensor p = Tensor::Zeros({2, 2});
  p.AccumulateGrad(Tensor::Full({2, 2}, 5.0));
  p.ZeroGrad();
  Tensor view = p.Reshape({4});
  EXPECT_FALSE(view.grad().defined());
  view.AccumulateGrad(Tensor::Full({4}, 1.0));
  EXPECT_EQ(view.grad().FlatAt(0), 1.0);
  EXPECT_EQ(p.grad().FlatAt(0), 0.0);  // p's own gradient is untouched
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor::Zeros({2, 3, 4}).ShapeString(), "[2, 3, 4]");
}

TEST(TensorTest, ZeroSizedTensor) {
  Tensor t = Tensor::Zeros({0, 4});
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.is_contiguous());
}

// ---- Half-float conversions -------------------------------------------------

TEST(HalfFloatTest, ExactValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 1024.0f}) {
    EXPECT_EQ(HalfBitsToFloat32(Float32ToHalfBits(v)), v) << v;
  }
}

TEST(HalfFloatTest, RoundingErrorBounded) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.Uniform(-8.0, 8.0));
    const float r = HalfBitsToFloat32(Float32ToHalfBits(v));
    // Half has ~3 decimal digits: relative error < 2^-10.
    EXPECT_NEAR(r, v, std::abs(v) * 1.0 / 1024.0 + 1e-7);
  }
}

TEST(HalfFloatTest, OverflowToInf) {
  const float big = 1e6f;
  const float r = HalfBitsToFloat32(Float32ToHalfBits(big));
  EXPECT_TRUE(std::isinf(r));
  EXPECT_GT(r, 0.0f);
}

TEST(HalfFloatTest, SubnormalsPreserveSign) {
  const float tiny = 1e-6f;
  const float r = HalfBitsToFloat32(Float32ToHalfBits(-tiny));
  EXPECT_LE(r, 0.0f);
}

}  // namespace
}  // namespace ddpkit
