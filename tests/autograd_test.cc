#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "autograd/engine.h"
#include "autograd/grad_accumulator.h"
#include "autograd/graph_utils.h"
#include "autograd/node.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

using autograd::Backward;
using autograd::NoGradGuard;

Tensor Leaf(std::vector<int64_t> shape, double value) {
  Tensor t = Tensor::Full(std::move(shape), value);
  t.set_requires_grad(true);
  return t;
}

TEST(AutogradTest, ScalarChainRule) {
  Tensor x = Leaf({1}, 3.0);
  Tensor y = ops::Scale(ops::Mul(x, x), 2.0);  // y = 2x^2, dy/dx = 4x = 12
  Backward(y);
  ASSERT_TRUE(x.grad().defined());
  EXPECT_NEAR(x.grad().Item(), 12.0, 1e-5);
}

TEST(AutogradTest, AddRoutesGradToBothInputs) {
  Tensor a = Leaf({2}, 1.0);
  Tensor b = Leaf({2}, 2.0);
  Tensor loss = ops::SumAll(ops::Add(a, b));
  Backward(loss);
  EXPECT_DOUBLE_EQ(a.grad().FlatAt(0), 1.0);
  EXPECT_DOUBLE_EQ(b.grad().FlatAt(1), 1.0);
}

TEST(AutogradTest, FanInSumsContributions) {
  // y = x + x: dy/dx = 2.
  Tensor x = Leaf({3}, 5.0);
  Tensor loss = ops::SumAll(ops::Add(x, x));
  Backward(loss);
  EXPECT_DOUBLE_EQ(x.grad().FlatAt(0), 2.0);
}

TEST(AutogradTest, DiamondGraph) {
  // y = (x*x) + (2x): dy/dx = 2x + 2 = 8 at x=3.
  Tensor x = Leaf({1}, 3.0);
  Tensor left = ops::Mul(x, x);
  Tensor right = ops::Scale(x, 2.0);
  Backward(ops::Add(left, right));
  EXPECT_NEAR(x.grad().Item(), 8.0, 1e-5);
}

TEST(AutogradTest, BackwardAccumulatesAcrossCalls) {
  Tensor x = Leaf({1}, 2.0);
  Tensor y = ops::Mul(x, x);
  Backward(y);
  EXPECT_NEAR(x.grad().Item(), 4.0, 1e-5);
  Backward(y);  // retain-graph semantics: grads accumulate
  EXPECT_NEAR(x.grad().Item(), 8.0, 1e-5);
}

TEST(AutogradTest, NoGradModeRecordsNothing) {
  Tensor x = Leaf({1}, 2.0);
  Tensor y;
  {
    NoGradGuard guard;
    y = ops::Mul(x, x);
  }
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(autograd::MaybeMeta(y), nullptr);
}

TEST(AutogradTest, GradOutputScalesGradient) {
  Tensor x = Leaf({2}, 1.0);
  Tensor y = ops::Scale(x, 3.0);
  Backward(y, Tensor::Full({2}, 10.0));
  EXPECT_DOUBLE_EQ(x.grad().FlatAt(0), 30.0);
}

TEST(AutogradTest, NonLeafHasNoGradAccumulated) {
  Tensor x = Leaf({1}, 2.0);
  Tensor mid = ops::Scale(x, 2.0);
  Backward(ops::Mul(mid, mid));
  EXPECT_FALSE(mid.grad().defined());  // interior tensors keep no .grad
  EXPECT_TRUE(x.grad().defined());
}

TEST(AutogradTest, SequenceNumbersIncrease) {
  Tensor x = Leaf({1}, 1.0);
  Tensor a = ops::Scale(x, 2.0);
  Tensor b = ops::Scale(a, 2.0);
  auto* meta_a = autograd::MaybeMeta(a);
  auto* meta_b = autograd::MaybeMeta(b);
  ASSERT_NE(meta_a, nullptr);
  ASSERT_NE(meta_b, nullptr);
  EXPECT_LT(meta_a->grad_fn->sequence_nr(), meta_b->grad_fn->sequence_nr());
}

// ---- GradAccumulator post-hooks (the DDP interception mechanism) ------------

// A node computes a gradient only for an input that requires one (PyTorch's
// needs_input_grad): the slot of a data input comes back undefined rather
// than computed and then dropped by the engine.
TEST(AutogradTest, NodesSkipGradientsOfDataInputs) {
  Rng rng(17);
  const auto apply = [](const Tensor& out) {
    const auto& node = autograd::MaybeMeta(out)->grad_fn;
    return node->Apply({Tensor::Ones(out.shape())});
  };
  Tensor data = Tensor::Randn({3, 4}, &rng);
  Tensor weight = Tensor::Randn({5, 4}, &rng);
  weight.set_requires_grad(true);
  Tensor bias = Tensor::Randn({5}, &rng);
  std::vector<Tensor> g = apply(ops::Linear(data, weight, bias));
  ASSERT_EQ(g.size(), 3u);
  EXPECT_FALSE(g[0].defined());
  EXPECT_TRUE(g[1].defined());
  EXPECT_FALSE(g[2].defined());

  Tensor right = Tensor::Randn({4, 2}, &rng);
  right.set_requires_grad(true);
  g = apply(ops::MatMul(data, right));
  ASSERT_EQ(g.size(), 2u);
  EXPECT_FALSE(g[0].defined());
  EXPECT_TRUE(g[1].defined());
  Tensor left = Tensor::Randn({2, 3}, &rng);
  left.set_requires_grad(true);
  g = apply(ops::MatMul(left, data));
  ASSERT_EQ(g.size(), 2u);
  EXPECT_TRUE(g[0].defined());
  EXPECT_FALSE(g[1].defined());

  Tensor image = Tensor::Randn({1, 2, 5, 5}, &rng);
  Tensor kernel = Tensor::Randn({3, 2, 3, 3}, &rng);
  kernel.set_requires_grad(true);
  Tensor channel_bias = Tensor::Randn({3}, &rng);
  channel_bias.set_requires_grad(true);
  g = apply(ops::Conv2d(image, kernel, channel_bias, 1, 1));
  ASSERT_EQ(g.size(), 3u);
  EXPECT_FALSE(g[0].defined());
  EXPECT_TRUE(g[1].defined());
  EXPECT_TRUE(g[2].defined());
}

// The ops whose backward reads their own output must not keep it alive:
// once backward has run and the caller drops its handles, the output (and
// with it its node and storage) is freed.
TEST(AutogradTest, OutputsSavedForBackwardAreFreed) {
  using Op = Tensor (*)(const Tensor&);
  const std::pair<const char*, Op> cases[] = {{"Exp", ops::Exp},
                                              {"Sqrt", ops::Sqrt},
                                              {"Sigmoid", ops::Sigmoid},
                                              {"Tanh", ops::Tanh},
                                              {"Softmax", ops::Softmax}};
  for (const auto& [name, op] : cases) {
    std::weak_ptr<internal::TensorImpl> out_impl;
    {
      Tensor x = Leaf({2, 3}, 0.5);
      Tensor out = op(x);
      out_impl = GetTensorImpl(out);
      Backward(ops::SumAll(out));
      ASSERT_TRUE(x.grad().defined()) << name;
    }
    EXPECT_TRUE(out_impl.expired()) << name;
  }
}

TEST(AutogradHookTest, PostHookFiresOncePerBackward) {
  Tensor x = Leaf({1}, 2.0);
  int fired = 0;
  autograd::GetGradAccumulator(x)->AddPostHook(
      [&fired](const Tensor&) { ++fired; });
  Backward(ops::Mul(x, x));
  EXPECT_EQ(fired, 1);
  Backward(ops::Mul(x, x));
  EXPECT_EQ(fired, 2);
}

TEST(AutogradHookTest, HookSeesAccumulatedGradient) {
  Tensor x = Leaf({1}, 3.0);
  double seen = 0.0;
  autograd::GetGradAccumulator(x)->AddPostHook(
      [&seen](const Tensor& p) { seen = p.grad().Item(); });
  Backward(ops::Mul(x, x));  // d(x^2)/dx = 6
  EXPECT_NEAR(seen, 6.0, 1e-5);
}

TEST(AutogradHookTest, AccumulatorIsStableAcrossIterations) {
  Tensor x = Leaf({1}, 1.0);
  auto acc1 = autograd::GetGradAccumulator(x);
  auto acc2 = autograd::GetGradAccumulator(x);
  EXPECT_EQ(acc1.get(), acc2.get());
  Backward(ops::Scale(x, 2.0));
  EXPECT_EQ(autograd::GetGradAccumulator(x).get(), acc1.get());
}

TEST(AutogradHookTest, HooksFireInReverseForwardOrderForAChain) {
  // In a chain a -> b, the parameter used LAST in the forward gets its
  // gradient FIRST in the backward — the assumption behind reverse-order
  // bucketing (§3.2.3).
  Tensor a = Leaf({1}, 1.0);
  Tensor b = Leaf({1}, 1.0);
  std::vector<char> order;
  autograd::GetGradAccumulator(a)->AddPostHook(
      [&order](const Tensor&) { order.push_back('a'); });
  autograd::GetGradAccumulator(b)->AddPostHook(
      [&order](const Tensor&) { order.push_back('b'); });
  Tensor mid = ops::Mul(ops::Scale(a, 2.0), a);  // uses a (early)
  Tensor out = ops::Mul(mid, b);                 // uses b (late)
  Backward(out);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'b');
  EXPECT_EQ(order[1], 'a');
}

// ---- Graph traversal (unused-parameter discovery) ------------------------------

TEST(GraphUtilsTest, FindsExactlyTheParticipatingParams) {
  Tensor used = Leaf({2}, 1.0);
  Tensor unused = Leaf({2}, 1.0);
  Tensor out = ops::SumAll(ops::Scale(used, 2.0));
  auto reachable = autograd::FindReachableParams({out});
  EXPECT_EQ(reachable.count(used.id()), 1u);
  EXPECT_EQ(reachable.count(unused.id()), 0u);
}

TEST(GraphUtilsTest, MultipleOutputsUnionTheirParams) {
  Tensor a = Leaf({1}, 1.0);
  Tensor b = Leaf({1}, 1.0);
  Tensor out_a = ops::Scale(a, 2.0);
  Tensor out_b = ops::Scale(b, 2.0);
  auto reachable = autograd::FindReachableParams({out_a, out_b});
  EXPECT_EQ(reachable.size(), 2u);
}

TEST(GraphUtilsTest, EmptyForNonGradOutputs) {
  Tensor plain = Tensor::Ones({2});
  auto reachable = autograd::FindReachableParams({plain});
  EXPECT_TRUE(reachable.empty());
}

TEST(GraphUtilsTest, DynamicGraphChangesBetweenIterations) {
  // The Fig 3(b) scenario: the participating set differs per forward.
  Tensor a = Leaf({1}, 1.0);
  Tensor b = Leaf({1}, 1.0);
  Tensor out1 = ops::Scale(a, 2.0);
  auto r1 = autograd::FindReachableParams({out1});
  Tensor out2 = ops::Scale(b, 2.0);
  auto r2 = autograd::FindReachableParams({out2});
  EXPECT_TRUE(r1.count(a.id()) && !r1.count(b.id()));
  EXPECT_TRUE(r2.count(b.id()) && !r2.count(a.id()));
}

}  // namespace
}  // namespace ddpkit
