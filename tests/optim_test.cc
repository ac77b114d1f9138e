#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/ops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"
#include "tests/vec_levels.h"

namespace ddpkit::optim {
namespace {

Tensor ParamWithGrad(double value, double grad) {
  Tensor p = Tensor::Full({2}, value);
  p.set_requires_grad(true);
  p.set_grad(Tensor::Full({2}, grad));
  return p;
}

TEST(SgdTest, PlainStepHandComputed) {
  Tensor p = ParamWithGrad(1.0, 0.5);
  Sgd sgd({p}, Sgd::Options{.lr = 0.1});
  sgd.Step();
  EXPECT_NEAR(p.FlatAt(0), 1.0 - 0.1 * 0.5, 1e-6);
}

TEST(SgdTest, MomentumAccumulates) {
  Tensor p = ParamWithGrad(0.0, 1.0);
  Sgd sgd({p}, Sgd::Options{.lr = 0.1, .momentum = 0.9});
  sgd.Step();  // buf = 1.0, p = -0.1
  EXPECT_NEAR(p.FlatAt(0), -0.1, 1e-6);
  p.set_grad(Tensor::Full({2}, 1.0));
  sgd.Step();  // buf = 0.9 + 1 = 1.9, p = -0.1 - 0.19 = -0.29
  EXPECT_NEAR(p.FlatAt(0), -0.29, 1e-6);
}

TEST(SgdTest, WeightDecayAddsToGradient) {
  Tensor p = ParamWithGrad(2.0, 0.0);
  Sgd sgd({p}, Sgd::Options{.lr = 0.1, .weight_decay = 0.5});
  sgd.Step();  // effective grad = 0 + 0.5*2 = 1 -> p = 2 - 0.1
  EXPECT_NEAR(p.FlatAt(0), 1.9, 1e-6);
}

TEST(SgdTest, SkipsParamsWithUndefinedGrad) {
  Tensor p = Tensor::Full({2}, 1.0);
  p.set_requires_grad(true);
  Sgd sgd({p}, Sgd::Options{.lr = 0.1});
  sgd.Step();  // no grad -> unchanged
  EXPECT_DOUBLE_EQ(p.FlatAt(0), 1.0);
}

TEST(SgdTest, UsedMaskFreezesMomentumOfSkippedParams) {
  // The §3.2.3 regression scenario: with gradient-absence information the
  // optimizer must leave momentum untouched for unused parameters.
  Tensor used = ParamWithGrad(0.0, 1.0);
  Tensor unused = ParamWithGrad(0.0, 1.0);
  Sgd sgd({used, unused}, Sgd::Options{.lr = 0.1, .momentum = 0.9});
  sgd.Step({1, 0});
  EXPECT_NEAR(used.FlatAt(0), -0.1, 1e-6);
  EXPECT_DOUBLE_EQ(unused.FlatAt(0), 0.0);  // untouched
  // Next step with both used: unused momentum starts fresh (buf = grad),
  // not compounded from the skipped step.
  used.set_grad(Tensor::Full({2}, 1.0));
  unused.set_grad(Tensor::Full({2}, 1.0));
  sgd.Step({1, 1});
  EXPECT_NEAR(unused.FlatAt(0), -0.1, 1e-6);
}

TEST(SgdTest, ZeroGradClearsGradients) {
  Tensor p = ParamWithGrad(1.0, 5.0);
  Sgd sgd({p}, Sgd::Options{});
  sgd.ZeroGrad();
  EXPECT_DOUBLE_EQ(p.grad().FlatAt(0), 0.0);
}

TEST(AdamTest, FirstStepMovesByLr) {
  // With bias correction, Adam's first update is ~lr * sign(grad).
  Tensor p = ParamWithGrad(1.0, 0.3);
  Adam adam({p}, Adam::Options{.lr = 0.01});
  adam.Step();
  EXPECT_NEAR(p.FlatAt(0), 1.0 - 0.01, 1e-4);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (p - 3)^2 with autograd-produced gradients.
  Rng rng(1);
  Tensor p = Tensor::Zeros({1});
  p.set_requires_grad(true);
  Adam adam({p}, Adam::Options{.lr = 0.1});
  Tensor target = Tensor::Full({1}, 3.0);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    Tensor loss = ops::MSELoss(p, target);
    autograd::Backward(loss);
    adam.Step();
  }
  EXPECT_NEAR(p.FlatAt(0), 3.0, 0.05);
}

TEST(AdamTest, UsedMaskFreezesMoments) {
  Tensor a = ParamWithGrad(0.0, 1.0);
  Tensor b = ParamWithGrad(0.0, 1.0);
  Adam adam({a, b}, Adam::Options{.lr = 0.01});
  adam.Step({1, 0});
  EXPECT_NE(a.FlatAt(0), 0.0);
  EXPECT_DOUBLE_EQ(b.FlatAt(0), 0.0);
}

TEST(SgdTest, IdenticalSequencesStayIdentical) {
  // Two replicas fed identical gradients stay bit-identical — the DDP
  // correctness contract (§3).
  Tensor p1 = Tensor::Full({4}, 1.0);
  Tensor p2 = Tensor::Full({4}, 1.0);
  p1.set_requires_grad(true);
  p2.set_requires_grad(true);
  Sgd opt1({p1}, Sgd::Options{.lr = 0.05, .momentum = 0.9});
  Sgd opt2({p2}, Sgd::Options{.lr = 0.05, .momentum = 0.9});
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    Tensor g = Tensor::Randn({4}, &rng);
    p1.set_grad(g.Clone());
    p2.set_grad(g.Clone());
    opt1.Step();
    opt2.Step();
    for (int64_t j = 0; j < 4; ++j) {
      ASSERT_EQ(p1.FlatAt(j), p2.FlatAt(j)) << "step " << i;
    }
  }
}

// ---- The fused SGD kernel against the three passes it replaced ------------

// Sgd::Step's body before the fused kernel, kept as the reference: weight
// decay into a copy of the gradient, then ScaleInPlace and AddInPlace on
// the momentum buffer, then Axpy into the parameter.
void ThreePassStep(const Sgd::Options& o, Tensor p, const Tensor& g,
                   Tensor* buf) {
  Tensor update = g;
  if (o.weight_decay != 0.0) {
    update = update.Clone();
    kernels::Axpy(o.weight_decay, p, &update);
  }
  if (o.momentum != 0.0) {
    if (!buf->defined()) {
      *buf = update.Clone();
    } else {
      kernels::ScaleInPlace(buf, o.momentum);
      kernels::AddInPlace(buf, update);
    }
    update = *buf;
  }
  kernels::Axpy(-o.lr, update, &p);
}

// Uniform values in [-2, 2) with ±0, denormals, ±inf and NaN at every
// `stride`-th element from `phase`, so g, m and p put specials against
// each other in every combination.
Tensor WithSpecials(int64_t n, uint64_t seed, int64_t stride, int64_t phase) {
  const float specials[] = {0.0f,
                            -0.0f,
                            1e-40f,
                            -3e-39f,
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN()};
  Rng rng(seed);
  Tensor t = Tensor::Rand({n}, &rng, -2.0, 2.0);
  float* d = t.data<float>();
  for (int64_t i = phase; i < n; i += stride) {
    d[i] = specials[static_cast<size_t>(i / stride) % std::size(specials)];
  }
  return t;
}

// Bitwise equal, except that a NaN need only meet a NaN: which operand's
// sign and payload an add keeps is the compiler's choice (it may commute).
void ExpectSameBits(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.numel(), got.numel()) << what;
  const float* w = want.data<float>();
  const float* g = got.data<float>();
  for (int64_t i = 0; i < want.numel(); ++i) {
    if (std::isnan(w[i])) {
      ASSERT_TRUE(std::isnan(g[i])) << what << " i=" << i;
    } else {
      ASSERT_EQ(0, std::memcmp(&w[i], &g[i], sizeof(float)))
          << what << " i=" << i << " want " << w[i] << " got " << g[i];
    }
  }
}

vec::SgdCoefficients Coefficients(const Sgd::Options& o, bool first_step) {
  return {.neg_lr = static_cast<float>(-o.lr),
          .weight_decay = static_cast<float>(o.weight_decay),
          .momentum = static_cast<float>(o.momentum),
          .first_step = first_step};
}

std::vector<Sgd::Options> AllBranches() {
  std::vector<Sgd::Options> out;
  for (const double momentum : {0.0, 0.9}) {
    for (const double weight_decay : {0.0, 0.01}) {
      out.push_back({.lr = 0.05,
                     .momentum = momentum,
                     .weight_decay = weight_decay});
    }
  }
  return out;
}

TEST(SgdKernelTest, FusedStepMatchesThreePassesAtEveryLevel) {
  ddpkit::testing::VecLevelGuard guard;
  std::vector<int64_t> lengths;
  for (int64_t n = 1; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(3 * kParallelGrain + 5);  // several ParallelFor chunks
  for (const int64_t n : lengths) {
    const Tensor g = WithSpecials(n, 100 + n, 7, 0);
    const Tensor m0 = WithSpecials(n, 200 + n, 5, 1);
    const Tensor p0 = WithSpecials(n, 300 + n, 11, 2);
    for (const Sgd::Options& o : AllBranches()) {
      for (const bool first_step : {true, false}) {
        const bool momentum = o.momentum != 0.0;
        if (first_step && !momentum) continue;
        vec::SetLevelForTesting(vec::Level::kScalar);
        Tensor want_p = p0.Clone();
        Tensor want_m = first_step ? Tensor() : m0.Clone();
        ThreePassStep(o, want_p, g, &want_m);
        for (const vec::Level level : ddpkit::testing::AvailableLevels()) {
          vec::SetLevelForTesting(level);
          Tensor got_p = p0.Clone();
          Tensor got_m = m0.Clone();
          kernels::SgdStep(&got_p, g, momentum ? &got_m : nullptr,
                           Coefficients(o, first_step));
          const std::string what =
              "n=" + std::to_string(n) + " momentum=" +
              std::to_string(o.momentum) + " wd=" +
              std::to_string(o.weight_decay) + " first=" +
              std::to_string(first_step) + " " + vec::LevelName(level);
          ExpectSameBits(want_p, got_p, "p " + what);
          if (momentum) ExpectSameBits(want_m, got_m, "m " + what);
        }
      }
    }
  }
}

// Sgd::Step for three steps, with and without a used mask, against the
// three passes applied by hand: parameters and momentum buffers bitwise.
TEST(SgdKernelTest, StepMatchesThreePassesOverThreeSteps) {
  const std::vector<int64_t> sizes = {5, 67, 2 * kParallelGrain + 3};
  const std::vector<std::vector<uint8_t>> masks = {
      {1, 0, 1}, {1, 1, 0}, {0, 1, 1}};
  for (const Sgd::Options& o : AllBranches()) {
    for (const bool masked : {false, true}) {
      std::vector<Tensor> params, want_params, want_bufs(sizes.size());
      for (size_t i = 0; i < sizes.size(); ++i) {
        params.push_back(WithSpecials(sizes[i], 400 + i, 13, 3));
        want_params.push_back(params.back().Clone());
      }
      Sgd sgd(params, o);
      for (int step = 0; step < 3; ++step) {
        const std::vector<uint8_t> mask =
            masked ? masks[static_cast<size_t>(step)]
                   : std::vector<uint8_t>(sizes.size(), 1);
        for (size_t i = 0; i < sizes.size(); ++i) {
          const Tensor g =
              WithSpecials(sizes[i], 500 + 10 * step + i, 17, step);
          params[i].set_grad(g.Clone());
          if (mask[i] != 0) ThreePassStep(o, want_params[i], g, &want_bufs[i]);
        }
        if (masked) {
          sgd.Step(mask);
        } else {
          sgd.Step();
        }
      }
      const auto state = sgd.named_state();
      for (size_t i = 0; i < sizes.size(); ++i) {
        const std::string what = "param " + std::to_string(i) +
                                 " momentum=" + std::to_string(o.momentum) +
                                 " wd=" + std::to_string(o.weight_decay) +
                                 " masked=" + std::to_string(masked);
        ExpectSameBits(want_params[i], params[i], what);
        // named_state materialises an unused buffer as zeros.
        const Tensor want_buf = want_bufs[i].defined()
                                    ? want_bufs[i]
                                    : Tensor::Zeros({sizes[i]});
        ExpectSameBits(want_buf, state[i].second, "momentum of " + what);
      }
    }
  }
}

}  // namespace
}  // namespace ddpkit::optim
