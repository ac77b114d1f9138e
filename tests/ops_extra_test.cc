// Tests for the extended op surface: div/exp/log/sqrt, max pooling, and
// dropout (kernel, autograd and module levels).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/zoo.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

using autograd::Backward;
using autograd::NoGradGuard;

Tensor Param(Tensor t) {
  t.set_requires_grad(true);
  return t;
}

double NumericalGrad(Tensor param, int64_t i,
                     const std::function<double()>& f, double eps = 1e-2) {
  NoGradGuard guard;
  const double orig = param.FlatAt(i);
  param.FlatSet(i, orig + eps);
  const double plus = f();
  param.FlatSet(i, orig - eps);
  const double minus = f();
  param.FlatSet(i, orig);
  return (plus - minus) / (2.0 * eps);
}

// ---- Kernels --------------------------------------------------------------------

TEST(ExtraKernelsTest, DivExpLogSqrt) {
  Tensor a = Tensor::FromVector({8.0f, 2.0f}, {2});
  Tensor b = Tensor::FromVector({2.0f, 4.0f}, {2});
  EXPECT_DOUBLE_EQ(kernels::Div(a, b).FlatAt(0), 4.0);
  EXPECT_DOUBLE_EQ(kernels::Div(a, b).FlatAt(1), 0.5);
  EXPECT_NEAR(kernels::Exp(Tensor::FromVector({1.0f}, {1})).Item(), M_E,
              1e-5);
  EXPECT_NEAR(kernels::Log(Tensor::FromVector({float(M_E)}, {1})).Item(),
              1.0, 1e-5);
  EXPECT_DOUBLE_EQ(kernels::Sqrt(Tensor::FromVector({9.0f}, {1})).Item(),
                   3.0);
}

TEST(ExtraKernelsTest, MaxPoolSelectsMaxAndRecordsArgmax) {
  Tensor input = Tensor::FromVector({1, 5, 3, 2}, {1, 1, 2, 2});
  Tensor argmax;
  Tensor out = kernels::MaxPool2x2(input, &argmax);
  EXPECT_EQ(out.numel(), 1);
  EXPECT_DOUBLE_EQ(out.Item(), 5.0);
  EXPECT_EQ(argmax.data<int64_t>()[0], 1);  // flat offset of the 5

  Tensor grad = kernels::MaxPool2x2Backward(Tensor::Ones({1, 1, 1, 1}),
                                            argmax, {1, 1, 2, 2});
  EXPECT_DOUBLE_EQ(grad.FlatAt(0), 0.0);
  EXPECT_DOUBLE_EQ(grad.FlatAt(1), 1.0);
  EXPECT_DOUBLE_EQ(grad.FlatAt(2), 0.0);
}

// ---- Autograd -------------------------------------------------------------------

TEST(ExtraOpsGradTest, Div) {
  Rng rng(1);
  Tensor a = Param(Tensor::Rand({4}, &rng, 1.0, 3.0));
  Tensor b = Param(Tensor::Rand({4}, &rng, 1.0, 3.0));
  Tensor loss = ops::MeanAll(ops::Div(a, b));
  Backward(loss);
  auto f = [&] { return ops::MeanAll(ops::Div(a, b)).Item(); };
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(a.grad().FlatAt(i), NumericalGrad(a, i, f), 2e-2);
    EXPECT_NEAR(b.grad().FlatAt(i), NumericalGrad(b, i, f), 2e-2);
  }
}

TEST(ExtraOpsGradTest, ExpLogSqrt) {
  Rng rng(2);
  for (auto op : {0, 1, 2}) {
    Tensor x = Param(Tensor::Rand({4}, &rng, 0.5, 2.0));
    auto apply = [&](const Tensor& t) {
      switch (op) {
        case 0: return ops::Exp(t);
        case 1: return ops::Log(t);
        default: return ops::Sqrt(t);
      }
    };
    Backward(ops::MeanAll(apply(x)));
    auto f = [&] { return ops::MeanAll(apply(x)).Item(); };
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(x.grad().FlatAt(i), NumericalGrad(x, i, f, 1e-3), 2e-2)
          << "op " << op << " elem " << i;
    }
  }
}

TEST(ExtraOpsGradTest, MaxPoolRoutesGradientToArgmax) {
  Rng rng(3);
  Tensor x = Param(Tensor::Randn({1, 2, 4, 4}, &rng));
  Tensor loss = ops::MeanAll(ops::MaxPool2x2(x));
  Backward(loss);
  // Exactly one nonzero gradient per 2x2 window, each = 1/outputs.
  int nonzero = 0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (x.grad().FlatAt(i) != 0.0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 2 * 2 * 2);  // C*OH*OW windows
}

TEST(ExtraOpsGradTest, DropoutMaskConsistentForwardBackward) {
  Rng rng(4);
  Rng mask_rng(7);
  Tensor x = Param(Tensor::Ones({100}));
  Tensor y = ops::Dropout(x, 0.4, &mask_rng);
  Backward(ops::SumAll(y));
  // Where the output was zeroed, the gradient is zero; where kept, the
  // gradient equals the 1/(1-p) scale.
  int kept = 0;
  for (int64_t i = 0; i < 100; ++i) {
    if (y.FlatAt(i) != 0.0) {
      ++kept;
      EXPECT_NEAR(y.FlatAt(i), 1.0 / 0.6, 1e-5);
      EXPECT_NEAR(x.grad().FlatAt(i), 1.0 / 0.6, 1e-5);
    } else {
      EXPECT_DOUBLE_EQ(x.grad().FlatAt(i), 0.0);
    }
  }
  EXPECT_GT(kept, 35);
  EXPECT_LT(kept, 85);
}

TEST(ExtraOpsGradTest, DropoutExpectationPreserved) {
  Rng mask_rng(8);
  Tensor x = Tensor::Ones({20000});
  Tensor y = ops::Dropout(x, 0.25, &mask_rng);
  double mean = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) mean += y.FlatAt(i);
  mean /= static_cast<double>(y.numel());
  EXPECT_NEAR(mean, 1.0, 0.02);  // inverted dropout keeps E[y] = x
}

// ---- Dropout module ----------------------------------------------------------------

TEST(DropoutModuleTest, IdentityInEvalMode) {
  nn::Dropout dropout(0.5, 9);
  dropout.SetTraining(false);
  Tensor x = Tensor::Full({8}, 2.0);
  Tensor y = dropout.Forward(x);
  EXPECT_TRUE(y.is_same(x));
}

TEST(DropoutModuleTest, SameSeedSameMaskAcrossInstances) {
  nn::Dropout a(0.5, 42);
  nn::Dropout b(0.5, 42);
  Tensor x = Tensor::Ones({64});
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  EXPECT_EQ(kernels::MaxAbsDiff(ya, yb), 0.0);
}

TEST(DropoutModuleTest, ZeroProbabilityIsIdentity) {
  nn::Dropout dropout(0.0, 1);
  Tensor x = Tensor::Full({4}, 3.0);
  EXPECT_TRUE(dropout.Forward(x).is_same(x));
}


// ---- Multi-head attention -------------------------------------------------------

TEST(SliceConcatTest, MultiHeadAttentionMatchesSingleHeadWidth) {
  // Multi-head attention produces the right shape and gradients for all
  // parameters of a 2-head transformer layer.
  Rng rng(21);
  nn::TransformerLayer layer(8, 16, &rng, /*num_heads=*/2);
  Tensor x = Param(Tensor::Randn({2, 3, 8}, &rng));
  Tensor out = layer.Forward(x);
  EXPECT_EQ(out.shape(), (std::vector<int64_t>{2, 3, 8}));
  Backward(ops::MeanAll(out));
  for (const auto& [name, p] : layer.named_parameters()) {
    EXPECT_TRUE(p.grad().defined()) << name;
  }
  EXPECT_TRUE(x.grad().defined());
}

}  // namespace
}  // namespace ddpkit
