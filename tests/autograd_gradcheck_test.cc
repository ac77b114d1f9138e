#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

using autograd::Backward;
using autograd::NoGradGuard;

/// Central-difference numerical gradient of `loss_fn` w.r.t. one element.
double NumericalGrad(Tensor param, int64_t flat_index,
                     const std::function<double()>& loss_fn,
                     double eps = 1e-2) {
  NoGradGuard guard;
  const double original = param.FlatAt(flat_index);
  param.FlatSet(flat_index, original + eps);
  const double plus = loss_fn();
  param.FlatSet(flat_index, original - eps);
  const double minus = loss_fn();
  param.FlatSet(flat_index, original);
  return (plus - minus) / (2.0 * eps);
}

/// Checks analytic vs numerical gradients for every element of every param.
void GradCheck(const std::vector<Tensor>& params,
               const std::function<Tensor()>& forward, double tolerance) {
  for (Tensor p : params) p.ZeroGrad();
  Tensor loss = forward();
  ASSERT_EQ(loss.numel(), 1);
  Backward(loss);

  auto loss_value = [&forward]() { return forward().Item(); };
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor p = params[pi];
    ASSERT_TRUE(p.grad().defined()) << "param " << pi << " got no gradient";
    for (int64_t i = 0; i < p.numel(); ++i) {
      const double analytic = p.grad().FlatAt(i);
      const double numeric = NumericalGrad(p, i, loss_value);
      EXPECT_NEAR(analytic, numeric,
                  tolerance * (1.0 + std::abs(numeric)))
          << "param " << pi << " element " << i;
    }
  }
}

Tensor Param(Tensor t) {
  t.set_requires_grad(true);
  return t;
}

TEST(GradCheckTest, Linear) {
  Rng rng(100);
  Tensor x = Tensor::Randn({3, 4}, &rng);
  Tensor w = Param(Tensor::Randn({2, 4}, &rng));
  Tensor b = Param(Tensor::Randn({2}, &rng));
  GradCheck({w, b},
            [&] { return ops::MeanAll(ops::Linear(x, w, b)); }, 2e-2);
}

TEST(GradCheckTest, LinearInputGradient) {
  Rng rng(101);
  Tensor x = Param(Tensor::Randn({2, 3}, &rng));
  Tensor w = Tensor::Randn({4, 3}, &rng);
  GradCheck({x},
            [&] {
              Tensor out = ops::Linear(x, w, Tensor());
              return ops::MeanAll(ops::Mul(out, out));
            },
            2e-2);
}

TEST(GradCheckTest, MatMulBothSides) {
  Rng rng(102);
  Tensor a = Param(Tensor::Randn({3, 2}, &rng));
  Tensor b = Param(Tensor::Randn({2, 3}, &rng));
  GradCheck({a, b},
            [&] {
              Tensor c = ops::MatMul(a, b);
              return ops::MeanAll(ops::Mul(c, c));
            },
            3e-2);
}

TEST(GradCheckTest, ReluAwayFromKink) {
  Rng rng(103);
  Tensor x = Param(Tensor::FromVector({1.5f, -1.2f, 0.7f, -2.0f}, {4}));
  GradCheck({x}, [&] { return ops::SumAll(ops::Relu(x)); }, 1e-3);
}

TEST(GradCheckTest, SigmoidAndTanh) {
  Rng rng(99);
  Tensor x = Param(Tensor::Randn({5}, &rng));
  GradCheck({x}, [&] { return ops::SumAll(ops::Sigmoid(x)); }, 1e-2);
  Tensor y = Param(Tensor::Randn({5}, &rng));
  GradCheck({y}, [&] { return ops::SumAll(ops::Tanh(y)); }, 1e-2);
}

TEST(GradCheckTest, Gelu) {
  Tensor x = Param(Tensor::FromVector({0.8f, -0.6f, 1.7f}, {3}));
  GradCheck({x}, [&] { return ops::SumAll(ops::Gelu(x)); }, 1e-2);
}

TEST(GradCheckTest, Conv2dWeightAndBias) {
  Rng rng(104);
  Tensor x = Tensor::Randn({2, 2, 4, 4}, &rng);
  Tensor w = Param(Tensor::Randn({3, 2, 3, 3}, &rng));
  Tensor b = Param(Tensor::Randn({3}, &rng));
  GradCheck({w, b},
            [&] {
              Tensor out = ops::Conv2d(x, w, b, 1, 1);
              return ops::MeanAll(ops::Mul(out, out));
            },
            5e-2);
}

TEST(GradCheckTest, Conv2dInput) {
  Rng rng(105);
  Tensor x = Param(Tensor::Randn({1, 2, 4, 4}, &rng));
  Tensor w = Tensor::Randn({2, 2, 3, 3}, &rng);
  GradCheck({x},
            [&] {
              Tensor out = ops::Conv2d(x, w, Tensor(), 2, 1);
              return ops::MeanAll(ops::Mul(out, out));
            },
            5e-2);
}

TEST(GradCheckTest, Pooling) {
  Rng rng(106);
  Tensor x = Param(Tensor::Randn({1, 2, 4, 4}, &rng));
  GradCheck({x},
            [&] {
              Tensor out = ops::AvgPool2x2(x);
              return ops::MeanAll(ops::Mul(out, out));
            },
            1e-2);
  Tensor y = Param(Tensor::Randn({2, 3, 4, 4}, &rng));
  GradCheck({y},
            [&] {
              Tensor out = ops::GlobalAvgPool(y);
              return ops::MeanAll(ops::Mul(out, out));
            },
            1e-2);
}

TEST(GradCheckTest, BatchNorm2d) {
  Rng rng(107);
  Tensor x = Param(Tensor::Randn({3, 2, 2, 2}, &rng));
  Tensor gamma = Param(Tensor::FromVector({1.2f, 0.8f}, {2}));
  Tensor beta = Param(Tensor::FromVector({0.1f, -0.2f}, {2}));
  GradCheck({x, gamma, beta},
            [&] {
              auto result = ops::BatchNorm2d(x, gamma, beta, 1e-5);
              return ops::MeanAll(
                  ops::Mul(result.output, result.output));
            },
            6e-2);
}

TEST(GradCheckTest, LayerNorm) {
  Rng rng(108);
  Tensor x = Param(Tensor::Randn({3, 5}, &rng));
  Tensor gamma = Param(Tensor::Rand({5}, &rng, 0.5, 1.5));
  Tensor beta = Param(Tensor::Randn({5}, &rng));
  GradCheck({x, gamma, beta},
            [&] {
              Tensor out = ops::LayerNorm(x, gamma, beta, 1e-5);
              return ops::MeanAll(ops::Mul(out, out));
            },
            6e-2);
}

TEST(GradCheckTest, Embedding) {
  Rng rng(109);
  Tensor table = Param(Tensor::Randn({5, 3}, &rng));
  Tensor idx = Tensor::FromVectorInt64({1, 4, 1}, {3});
  GradCheck({table},
            [&] {
              Tensor out = ops::Embedding(idx, table);
              return ops::MeanAll(ops::Mul(out, out));
            },
            2e-2);
}

TEST(GradCheckTest, Softmax) {
  Rng rng(110);
  Tensor x = Param(Tensor::Randn({2, 4}, &rng));
  Tensor target = Tensor::Rand({2, 4}, &rng);
  GradCheck({x},
            [&] { return ops::MSELoss(ops::Softmax(x), target); }, 2e-2);
}

TEST(GradCheckTest, Attention) {
  Rng rng(111);
  Tensor q = Param(Tensor::Randn({2, 3, 4}, &rng));
  Tensor k = Param(Tensor::Randn({2, 3, 4}, &rng));
  Tensor v = Param(Tensor::Randn({2, 3, 4}, &rng));
  GradCheck({q, k, v},
            [&] {
              Tensor out = ops::Attention(q, k, v, /*num_heads=*/1);
              return ops::MeanAll(ops::Mul(out, out));
            },
            6e-2);
}

TEST(GradCheckTest, MultiHeadAttention) {
  Rng rng(121);
  Tensor q = Param(Tensor::Randn({2, 3, 6}, &rng));
  Tensor k = Param(Tensor::Randn({2, 3, 6}, &rng));
  Tensor v = Param(Tensor::Randn({2, 3, 6}, &rng));
  GradCheck({q, k, v},
            [&] {
              Tensor out = ops::Attention(q, k, v, /*num_heads=*/3);
              return ops::MeanAll(ops::Mul(out, out));
            },
            6e-2);
}

TEST(GradCheckTest, MSELoss) {
  Rng rng(112);
  Tensor pred = Param(Tensor::Randn({3, 2}, &rng));
  Tensor target = Tensor::Randn({3, 2}, &rng);
  GradCheck({pred}, [&] { return ops::MSELoss(pred, target); }, 1e-2);
}

TEST(GradCheckTest, CrossEntropyLoss) {
  Rng rng(113);
  Tensor logits = Param(Tensor::Randn({4, 5}, &rng));
  Tensor targets = Tensor::FromVectorInt64({0, 3, 2, 4}, {4});
  GradCheck({logits},
            [&] { return ops::CrossEntropyLoss(logits, targets); }, 1e-2);
}

TEST(GradCheckTest, TileRows) {
  Rng rng(114);
  Tensor pos = Param(Tensor::Randn({2, 3}, &rng));
  GradCheck({pos},
            [&] {
              Tensor tiled = ops::TileRows(pos, 3);
              return ops::MeanAll(ops::Mul(tiled, tiled));
            },
            2e-2);
}

TEST(GradCheckTest, Reshape) {
  Rng rng(115);
  Tensor x = Param(Tensor::Randn({2, 6}, &rng));
  GradCheck({x},
            [&] {
              Tensor r = ops::Reshape(x, {3, 4});
              return ops::MeanAll(ops::Mul(r, r));
            },
            1e-2);
}

}  // namespace
}  // namespace ddpkit
