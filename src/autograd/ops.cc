#include "autograd/ops.h"

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "autograd/engine.h"
#include "autograd/node.h"

namespace ddpkit::ops {

namespace {

using autograd::Edge;
using autograd::GradEdge;
using autograd::GradModeEnabled;
using autograd::NeedsGrad;
using autograd::Node;
using autograd::SetHistory;

/// Generic backward node whose gradient function is a captured lambda.
/// Keeps op definitions compact; saved tensors live in the closure.
class LambdaNode : public Node {
 public:
  using Fn = std::function<std::vector<Tensor>(std::vector<Tensor>)>;
  LambdaNode(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::vector<Tensor> Apply(std::vector<Tensor> grad_outputs) override {
    autograd::NoGradGuard guard;
    return fn_(std::move(grad_outputs));
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Fn fn_;
};

bool AnyRequiresGrad(std::initializer_list<const Tensor*> inputs) {
  if (!GradModeEnabled()) return false;
  for (const Tensor* t : inputs) {
    if (NeedsGrad(*t)) return true;
  }
  return false;
}

/// Attaches a LambdaNode producing gradients for `inputs` (in order).
void Record(Tensor* out, const char* name,
            std::initializer_list<const Tensor*> inputs, LambdaNode::Fn fn) {
  auto node = std::make_shared<LambdaNode>(name, std::move(fn));
  std::vector<Edge> edges;
  edges.reserve(inputs.size());
  for (const Tensor* t : inputs) edges.push_back(GradEdge(*t));
  node->set_next_edges(std::move(edges));
  SetHistory(out, std::move(node));
}

/// What a node keeps of a tensor for backward: an alias of its data
/// (storage, offset, shape, strides) without its grad or autograd meta.
/// A node that kept its own output whole would be owned by that output's
/// meta and own it back, a cycle that frees neither.
Tensor SavedData(const Tensor& t) {
  return MakeTensorFromImpl(internal::DataAlias(*GetTensorImpl(t)));
}

Tensor FirstGrad(std::vector<Tensor>& grads) {
  DDPKIT_CHECK(!grads.empty() && grads[0].defined());
  return grads[0].Contiguous();
}

}  // namespace

// ---- Elementwise -------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = kernels::Add(a, b);
  if (AnyRequiresGrad({&a, &b})) {
    Record(&out, "AddBackward", {&a, &b}, [](std::vector<Tensor> grads) {
      Tensor g = FirstGrad(grads);
      return std::vector<Tensor>{g, g};
    });
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = kernels::Sub(a, b);
  if (AnyRequiresGrad({&a, &b})) {
    Record(&out, "SubBackward", {&a, &b}, [](std::vector<Tensor> grads) {
      Tensor g = FirstGrad(grads);
      return std::vector<Tensor>{g, kernels::Neg(g)};
    });
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = kernels::Mul(a, b);
  if (AnyRequiresGrad({&a, &b})) {
    Tensor sa = a, sb = b;
    Record(&out, "MulBackward", {&a, &b}, [sa, sb](std::vector<Tensor> grads) {
      Tensor g = FirstGrad(grads);
      return std::vector<Tensor>{kernels::Mul(g, sb), kernels::Mul(g, sa)};
    });
  }
  return out;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = kernels::Div(a, b);
  if (AnyRequiresGrad({&a, &b})) {
    Tensor sa = a, sb = b;
    Record(&out, "DivBackward", {&a, &b}, [sa, sb](std::vector<Tensor> grads) {
      Tensor g = FirstGrad(grads);
      // d(a/b)/da = 1/b ; d(a/b)/db = -a/b^2.
      Tensor grad_a = kernels::Div(g, sb);
      Tensor grad_b =
          kernels::Neg(kernels::Div(kernels::Mul(g, sa),
                                    kernels::Mul(sb, sb)));
      return std::vector<Tensor>{grad_a, grad_b};
    });
  }
  return out;
}

Tensor Scale(const Tensor& a, double s) {
  Tensor out = kernels::Scale(a, s);
  if (AnyRequiresGrad({&a})) {
    Record(&out, "ScaleBackward", {&a}, [s](std::vector<Tensor> grads) {
      return std::vector<Tensor>{kernels::Scale(FirstGrad(grads), s)};
    });
  }
  return out;
}

Tensor Exp(const Tensor& a) {
  Tensor out = kernels::Exp(a);
  if (AnyRequiresGrad({&a})) {
    Tensor sout = SavedData(out);
    Record(&out, "ExpBackward", {&a}, [sout](std::vector<Tensor> grads) {
      return std::vector<Tensor>{kernels::Mul(FirstGrad(grads), sout)};
    });
  }
  return out;
}

Tensor Log(const Tensor& a) {
  Tensor out = kernels::Log(a);
  if (AnyRequiresGrad({&a})) {
    Tensor sa = a;
    Record(&out, "LogBackward", {&a}, [sa](std::vector<Tensor> grads) {
      return std::vector<Tensor>{kernels::Div(FirstGrad(grads), sa)};
    });
  }
  return out;
}

Tensor Sqrt(const Tensor& a) {
  Tensor out = kernels::Sqrt(a);
  if (AnyRequiresGrad({&a})) {
    Tensor sout = SavedData(out);
    Record(&out, "SqrtBackward", {&a}, [sout](std::vector<Tensor> grads) {
      // d sqrt(a)/da = 1 / (2 sqrt(a)).
      return std::vector<Tensor>{
          kernels::Div(FirstGrad(grads), kernels::Scale(sout, 2.0))};
    });
  }
  return out;
}

Tensor Dropout(const Tensor& a, double p, Rng* rng) {
  DDPKIT_CHECK(p >= 0.0 && p < 1.0);
  if (p == 0.0) return a;
  DDPKIT_CHECK(rng != nullptr);
  // Build the inverted-dropout mask, then apply it as an elementwise
  // multiply (whose backward reuses the mask).
  Tensor mask = Tensor::Empty(a.shape(), DType::kFloat32, a.device_id());
  {
    float* pm = mask.data<float>();
    const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
    const int64_t n = mask.numel();
    for (int64_t i = 0; i < n; ++i) {
      pm[i] = rng->Uniform() < p ? 0.0f : keep_scale;
    }
  }
  return Mul(a, mask);
}

// ---- Activations ---------------------------------------------------------------

Tensor Relu(const Tensor& a) {
  Tensor out = kernels::Relu(a);
  if (AnyRequiresGrad({&a})) {
    Tensor saved = a;
    Record(&out, "ReluBackward", {&a}, [saved](std::vector<Tensor> grads) {
      return std::vector<Tensor>{
          kernels::ReluBackward(FirstGrad(grads), saved)};
    });
  }
  return out;
}

Tensor Gelu(const Tensor& a) {
  Tensor out = kernels::Gelu(a);
  if (AnyRequiresGrad({&a})) {
    Tensor saved = a;
    Record(&out, "GeluBackward", {&a}, [saved](std::vector<Tensor> grads) {
      return std::vector<Tensor>{
          kernels::GeluBackward(FirstGrad(grads), saved)};
    });
  }
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out = kernels::Sigmoid(a);
  if (AnyRequiresGrad({&a})) {
    Tensor sout = SavedData(out);
    Record(&out, "SigmoidBackward", {&a}, [sout](std::vector<Tensor> grads) {
      // d sigma/dx = sigma (1 - sigma).
      Tensor g = FirstGrad(grads);
      Tensor one_minus = kernels::AddScalar(kernels::Neg(sout), 1.0);
      return std::vector<Tensor>{
          kernels::Mul(g, kernels::Mul(sout, one_minus))};
    });
  }
  return out;
}

Tensor Tanh(const Tensor& a) {
  Tensor out = kernels::Tanh(a);
  if (AnyRequiresGrad({&a})) {
    Tensor sout = SavedData(out);
    Record(&out, "TanhBackward", {&a}, [sout](std::vector<Tensor> grads) {
      // d tanh/dx = 1 - tanh^2.
      Tensor g = FirstGrad(grads);
      Tensor one_minus_sq =
          kernels::AddScalar(kernels::Neg(kernels::Mul(sout, sout)), 1.0);
      return std::vector<Tensor>{kernels::Mul(g, one_minus_sq)};
    });
  }
  return out;
}

// ---- Linear algebra ---------------------------------------------------------------

Tensor Linear(const Tensor& input, const Tensor& weight, const Tensor& bias) {
  DDPKIT_CHECK_EQ(input.dim(), 2);
  DDPKIT_CHECK_EQ(weight.dim(), 2);
  Tensor out = kernels::MatMulTransB(input, weight);
  if (bias.defined()) out = kernels::AddRowBroadcast(out, bias);
  if (AnyRequiresGrad({&input, &weight, &bias})) {
    Tensor sin = input, sw = weight;
    const bool need_input = NeedsGrad(input), need_weight = NeedsGrad(weight),
               need_bias = NeedsGrad(bias);
    Record(&out, "LinearBackward", {&input, &weight, &bias},
           [sin, sw, need_input, need_weight,
            need_bias](std::vector<Tensor> grads) {
             Tensor g = FirstGrad(grads);
             return std::vector<Tensor>{
                 need_input ? kernels::MatMul(g, sw) : Tensor(),
                 need_weight ? kernels::MatMulTransA(g, sin) : Tensor(),
                 need_bias ? kernels::SumRows(g) : Tensor()};
           });
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out = kernels::MatMul(a, b);
  if (AnyRequiresGrad({&a, &b})) {
    Tensor sa = a, sb = b;
    const bool need_a = NeedsGrad(a), need_b = NeedsGrad(b);
    Record(&out, "MatMulBackward", {&a, &b},
           [sa, sb, need_a, need_b](std::vector<Tensor> grads) {
             Tensor g = FirstGrad(grads);
             return std::vector<Tensor>{
                 need_a ? kernels::MatMulTransB(g, sb) : Tensor(),
                 need_b ? kernels::MatMulTransA(sa, g) : Tensor()};
           });
  }
  return out;
}

// ---- Shape -----------------------------------------------------------------------

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  Tensor contiguous = a.Contiguous();
  Tensor out = contiguous.Reshape(shape);
  if (AnyRequiresGrad({&a})) {
    std::vector<int64_t> original = a.shape();
    Record(&out, "ReshapeBackward", {&a},
           [original](std::vector<Tensor> grads) {
             return std::vector<Tensor>{FirstGrad(grads).Reshape(original)};
           });
  }
  return out;
}

Tensor TileRows(const Tensor& a, int64_t repeats) {
  DDPKIT_CHECK_EQ(a.dim(), 2);
  DDPKIT_CHECK_GT(repeats, 0);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({repeats * m, n}, DType::kFloat32,
                             a.device_id());
  Tensor src = a.Contiguous();
  for (int64_t r = 0; r < repeats; ++r) {
    out.Narrow(0, r * m, m).CopyFrom(src);
  }
  if (AnyRequiresGrad({&a})) {
    Record(&out, "TileRowsBackward", {&a},
           [m, n, repeats](std::vector<Tensor> grads) {
             Tensor g = FirstGrad(grads);
             Tensor grad_a = Tensor::Zeros({m, n});
             for (int64_t r = 0; r < repeats; ++r) {
               Tensor tile = g.Narrow(0, r * m, m);
               kernels::AddInPlace(&grad_a, tile);
             }
             return std::vector<Tensor>{grad_a};
           });
  }
  return out;
}

// ---- Convolution / pooling -----------------------------------------------------------

namespace {

void AddChannelBiasInPlace(Tensor* out, const Tensor& bias) {
  const int64_t n = out->size(0), c = out->size(1),
                hw = out->size(2) * out->size(3);
  float* po = out->data<float>();
  const float* pb = bias.data<float>();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float b = pb[ch];
      float* base = po + (i * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) base[j] += b;
    }
  }
}

Tensor ChannelBiasGrad(const Tensor& grad_out) {
  const int64_t n = grad_out.size(0), c = grad_out.size(1),
                hw = grad_out.size(2) * grad_out.size(3);
  Tensor grad_bias = Tensor::Zeros({c}, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  float* pb = grad_bias.data<float>();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* base = pg + (i * c + ch) * hw;
      float acc = 0.0f;
      for (int64_t j = 0; j < hw; ++j) acc += base[j];
      pb[ch] += acc;
    }
  }
  return grad_bias;
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t stride, int64_t padding) {
  kernels::Conv2dArgs args{stride, padding};
  Tensor out = kernels::Conv2d(input, weight, args);
  if (bias.defined()) AddChannelBiasInPlace(&out, bias);
  if (AnyRequiresGrad({&input, &weight, &bias})) {
    Tensor sin = input, sw = weight;
    const bool need_input = NeedsGrad(input), need_weight = NeedsGrad(weight),
               need_bias = NeedsGrad(bias);
    std::vector<int64_t> in_shape = input.shape();
    std::vector<int64_t> w_shape = weight.shape();
    Record(&out, "Conv2dBackward", {&input, &weight, &bias},
           [sin, sw, need_input, need_weight, need_bias, in_shape, w_shape,
            args](std::vector<Tensor> grads) {
             Tensor g = FirstGrad(grads);
             return std::vector<Tensor>{
                 need_input
                     ? kernels::Conv2dBackwardInput(g, sw, in_shape, args)
                     : Tensor(),
                 need_weight
                     ? kernels::Conv2dBackwardWeight(g, sin, w_shape, args)
                     : Tensor(),
                 need_bias ? ChannelBiasGrad(g) : Tensor()};
           });
  }
  return out;
}

Tensor AvgPool2x2(const Tensor& input) {
  Tensor out = kernels::AvgPool2x2(input);
  if (AnyRequiresGrad({&input})) {
    std::vector<int64_t> in_shape = input.shape();
    Record(&out, "AvgPool2x2Backward", {&input},
           [in_shape](std::vector<Tensor> grads) {
             return std::vector<Tensor>{
                 kernels::AvgPool2x2Backward(FirstGrad(grads), in_shape)};
           });
  }
  return out;
}

Tensor MaxPool2x2(const Tensor& input) {
  Tensor argmax;
  Tensor out = kernels::MaxPool2x2(input, &argmax);
  if (AnyRequiresGrad({&input})) {
    std::vector<int64_t> in_shape = input.shape();
    Record(&out, "MaxPool2x2Backward", {&input},
           [argmax, in_shape](std::vector<Tensor> grads) {
             return std::vector<Tensor>{kernels::MaxPool2x2Backward(
                 FirstGrad(grads), argmax, in_shape)};
           });
  }
  return out;
}

Tensor GlobalAvgPool(const Tensor& input) {
  Tensor out = kernels::GlobalAvgPool(input);
  if (AnyRequiresGrad({&input})) {
    std::vector<int64_t> in_shape = input.shape();
    Record(&out, "GlobalAvgPoolBackward", {&input},
           [in_shape](std::vector<Tensor> grads) {
             return std::vector<Tensor>{
                 kernels::GlobalAvgPoolBackward(FirstGrad(grads), in_shape)};
           });
  }
  return out;
}

// ---- Normalization --------------------------------------------------------------------

BatchNormResult BatchNorm2d(const Tensor& input, const Tensor& gamma,
                            const Tensor& beta, double eps) {
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t n = input.size(0), c = input.size(1),
                hw = input.size(2) * input.size(3);
  const int64_t m = n * hw;  // samples per channel

  Tensor mean = Tensor::Zeros({c});
  Tensor var = Tensor::Zeros({c});
  Tensor invstd = Tensor::Zeros({c});
  Tensor xhat = Tensor::Empty(input.shape());
  Tensor out = Tensor::Empty(input.shape());

  const float* pi = input.data<float>();
  float* pmean = mean.data<float>();
  float* pvar = var.data<float>();
  float* pinv = invstd.data<float>();
  float* pxhat = xhat.data<float>();
  float* pout = out.data<float>();
  const float* pg = gamma.data<float>();
  const float* pb = beta.data<float>();

  for (int64_t ch = 0; ch < c; ++ch) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const float* base = pi + (i * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) acc += base[j];
    }
    const double mu = acc / static_cast<double>(m);
    double sq = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const float* base = pi + (i * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) {
        const double d = base[j] - mu;
        sq += d * d;
      }
    }
    const double v = sq / static_cast<double>(m);
    const double is = 1.0 / std::sqrt(v + eps);
    pmean[ch] = static_cast<float>(mu);
    pvar[ch] = static_cast<float>(v);
    pinv[ch] = static_cast<float>(is);
    for (int64_t i = 0; i < n; ++i) {
      const float* base = pi + (i * c + ch) * hw;
      float* xbase = pxhat + (i * c + ch) * hw;
      float* obase = pout + (i * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) {
        const float xh = static_cast<float>((base[j] - mu) * is);
        xbase[j] = xh;
        obase[j] = pg[ch] * xh + pb[ch];
      }
    }
  }

  if (AnyRequiresGrad({&input, &gamma, &beta})) {
    Tensor sgamma = gamma, sxhat = xhat, sinvstd = invstd;
    const int64_t sn = n, sc = c, shw = hw;
    Record(&out, "BatchNorm2dBackward", {&input, &gamma, &beta},
           [sgamma, sxhat, sinvstd, sn, sc, shw](std::vector<Tensor> grads) {
             Tensor g = FirstGrad(grads);
             const int64_t m = sn * shw;
             Tensor grad_input = Tensor::Empty(g.shape());
             Tensor grad_gamma = Tensor::Zeros({sc});
             Tensor grad_beta = Tensor::Zeros({sc});
             const float* pgo = g.data<float>();
             const float* pxh = sxhat.data<float>();
             const float* pis = sinvstd.data<float>();
             const float* pgam = sgamma.data<float>();
             float* pgi = grad_input.data<float>();
             float* pgg = grad_gamma.data<float>();
             float* pgb = grad_beta.data<float>();
             for (int64_t ch = 0; ch < sc; ++ch) {
               double sum_go = 0.0, sum_go_xhat = 0.0;
               for (int64_t i = 0; i < sn; ++i) {
                 const float* gb = pgo + (i * sc + ch) * shw;
                 const float* xb = pxh + (i * sc + ch) * shw;
                 for (int64_t j = 0; j < shw; ++j) {
                   sum_go += gb[j];
                   sum_go_xhat += static_cast<double>(gb[j]) * xb[j];
                 }
               }
               pgg[ch] = static_cast<float>(sum_go_xhat);
               pgb[ch] = static_cast<float>(sum_go);
               const double scale =
                   static_cast<double>(pgam[ch]) * pis[ch] / m;
               for (int64_t i = 0; i < sn; ++i) {
                 const float* gb = pgo + (i * sc + ch) * shw;
                 const float* xb = pxh + (i * sc + ch) * shw;
                 float* ib = pgi + (i * sc + ch) * shw;
                 for (int64_t j = 0; j < shw; ++j) {
                   ib[j] = static_cast<float>(
                       scale * (m * static_cast<double>(gb[j]) - sum_go -
                                static_cast<double>(xb[j]) * sum_go_xhat));
                 }
               }
             }
             return std::vector<Tensor>{grad_input, grad_gamma, grad_beta};
           });
  }

  return BatchNormResult{out, mean, var};
}

Tensor BatchNorm2dInference(const Tensor& input, const Tensor& gamma,
                            const Tensor& beta, const Tensor& running_mean,
                            const Tensor& running_var, double eps) {
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t n = input.size(0), c = input.size(1),
                hw = input.size(2) * input.size(3);
  Tensor out = Tensor::Empty(input.shape());
  const float* pi = input.data<float>();
  float* po = out.data<float>();
  const float* pg = gamma.data<float>();
  const float* pb = beta.data<float>();
  const float* pm = running_mean.data<float>();
  const float* pv = running_var.data<float>();
  for (int64_t ch = 0; ch < c; ++ch) {
    const float is = 1.0f / std::sqrt(pv[ch] + static_cast<float>(eps));
    for (int64_t i = 0; i < n; ++i) {
      const float* base = pi + (i * c + ch) * hw;
      float* obase = po + (i * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) {
        obase[j] = pg[ch] * (base[j] - pm[ch]) * is + pb[ch];
      }
    }
  }
  // Inference-mode normalization still propagates gradients to gamma/beta
  // and the input, treating the running statistics as constants.
  if (AnyRequiresGrad({&input, &gamma, &beta})) {
    Tensor sgamma = gamma, smean = running_mean, svar = running_var,
           sinput = input;
    const int64_t sn = n, sc = c, shw = hw;
    Record(&out, "BatchNorm2dInferenceBackward", {&input, &gamma, &beta},
           [sgamma, smean, svar, sinput, sn, sc, shw,
            eps](std::vector<Tensor> grads) {
             Tensor g = FirstGrad(grads);
             Tensor grad_input = Tensor::Empty(g.shape());
             Tensor grad_gamma = Tensor::Zeros({sc});
             Tensor grad_beta = Tensor::Zeros({sc});
             const float* pgo = g.data<float>();
             const float* pin = sinput.data<float>();
             const float* pgam = sgamma.data<float>();
             const float* pm = smean.data<float>();
             const float* pv = svar.data<float>();
             float* pgi = grad_input.data<float>();
             float* pgg = grad_gamma.data<float>();
             float* pgb = grad_beta.data<float>();
             for (int64_t ch = 0; ch < sc; ++ch) {
               const float is =
                   1.0f / std::sqrt(pv[ch] + static_cast<float>(eps));
               double sum_go = 0.0, sum_go_xhat = 0.0;
               for (int64_t i = 0; i < sn; ++i) {
                 const float* gb = pgo + (i * sc + ch) * shw;
                 const float* ib = pin + (i * sc + ch) * shw;
                 float* gib = pgi + (i * sc + ch) * shw;
                 for (int64_t j = 0; j < shw; ++j) {
                   const float xh = (ib[j] - pm[ch]) * is;
                   sum_go += gb[j];
                   sum_go_xhat += static_cast<double>(gb[j]) * xh;
                   gib[j] = gb[j] * pgam[ch] * is;
                 }
               }
               pgg[ch] = static_cast<float>(sum_go_xhat);
               pgb[ch] = static_cast<float>(sum_go);
             }
             return std::vector<Tensor>{grad_input, grad_gamma, grad_beta};
           });
  }
  return out;
}

Tensor LayerNorm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                 double eps) {
  Tensor x = input.Contiguous();
  const int64_t d = x.size(x.dim() - 1);
  const int64_t rows = x.numel() / d;
  DDPKIT_CHECK_EQ(gamma.numel(), d);
  DDPKIT_CHECK_EQ(beta.numel(), d);

  Tensor out = Tensor::Empty(x.shape());
  Tensor xhat = Tensor::Empty(x.shape());
  Tensor invstd = Tensor::Empty({rows});

  const float* pi = x.data<float>();
  const float* pg = gamma.data<float>();
  const float* pb = beta.data<float>();
  float* po = out.data<float>();
  float* pxh = xhat.data<float>();
  float* pis = invstd.data<float>();

  for (int64_t r = 0; r < rows; ++r) {
    const float* row = pi + r * d;
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) acc += row[j];
    const double mu = acc / d;
    double sq = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double dv = row[j] - mu;
      sq += dv * dv;
    }
    const double is = 1.0 / std::sqrt(sq / d + eps);
    pis[r] = static_cast<float>(is);
    float* orow = po + r * d;
    float* xrow = pxh + r * d;
    for (int64_t j = 0; j < d; ++j) {
      const float xh = static_cast<float>((row[j] - mu) * is);
      xrow[j] = xh;
      orow[j] = pg[j] * xh + pb[j];
    }
  }

  if (AnyRequiresGrad({&input, &gamma, &beta})) {
    Tensor sgamma = gamma, sxhat = xhat, sinvstd = invstd;
    const int64_t sd = d, srows = rows;
    Record(&out, "LayerNormBackward", {&input, &gamma, &beta},
           [sgamma, sxhat, sinvstd, sd, srows](std::vector<Tensor> grads) {
             Tensor g = FirstGrad(grads);
             Tensor grad_input = Tensor::Empty(g.shape());
             Tensor grad_gamma = Tensor::Zeros({sd});
             Tensor grad_beta = Tensor::Zeros({sd});
             const float* pgo = g.data<float>();
             const float* pxh = sxhat.data<float>();
             const float* pis = sinvstd.data<float>();
             const float* pgam = sgamma.data<float>();
             float* pgi = grad_input.data<float>();
             float* pgg = grad_gamma.data<float>();
             float* pgb = grad_beta.data<float>();
             for (int64_t r = 0; r < srows; ++r) {
               const float* grow = pgo + r * sd;
               const float* xrow = pxh + r * sd;
               float* irow = pgi + r * sd;
               double sum_gy = 0.0, sum_gy_xhat = 0.0;
               for (int64_t j = 0; j < sd; ++j) {
                 const double gy = static_cast<double>(grow[j]) * pgam[j];
                 sum_gy += gy;
                 sum_gy_xhat += gy * xrow[j];
                 pgg[j] += grow[j] * xrow[j];
                 pgb[j] += grow[j];
               }
               const double is = pis[r];
               for (int64_t j = 0; j < sd; ++j) {
                 const double gy = static_cast<double>(grow[j]) * pgam[j];
                 irow[j] = static_cast<float>(
                     is * (gy - sum_gy / sd - xrow[j] * sum_gy_xhat / sd));
               }
             }
             return std::vector<Tensor>{grad_input, grad_gamma, grad_beta};
           });
  }
  return out;
}

// ---- Embedding / attention ---------------------------------------------------------------

Tensor Embedding(const Tensor& indices, const Tensor& table) {
  Tensor out = kernels::EmbeddingLookup(indices, table);
  if (AnyRequiresGrad({&table})) {
    Tensor sidx = indices;
    std::vector<int64_t> tshape = table.shape();
    // The indices input takes no gradient; only the table edge is live.
    auto node = std::make_shared<LambdaNode>(
        "EmbeddingBackward", [sidx, tshape](std::vector<Tensor> grads) {
          Tensor g = FirstGrad(grads);
          return std::vector<Tensor>{
              kernels::EmbeddingBackward(g, sidx, tshape)};
        });
    node->set_next_edges({GradEdge(table)});
    SetHistory(&out, std::move(node));
  }
  return out;
}

Tensor Softmax(const Tensor& a) {
  Tensor out = kernels::Softmax(a);
  if (AnyRequiresGrad({&a})) {
    Tensor sout = SavedData(out);
    Record(&out, "SoftmaxBackward", {&a}, [sout](std::vector<Tensor> grads) {
      Tensor g = FirstGrad(grads);
      const int64_t m = g.size(0), n = g.size(1);
      Tensor grad_in = Tensor::Empty(g.shape());
      const float* pg = g.data<float>();
      const float* py = sout.data<float>();
      float* pi = grad_in.data<float>();
      for (int64_t i = 0; i < m; ++i) {
        const float* grow = pg + i * n;
        const float* yrow = py + i * n;
        float* irow = pi + i * n;
        double dot = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          dot += static_cast<double>(grow[j]) * yrow[j];
        }
        for (int64_t j = 0; j < n; ++j) {
          irow[j] = static_cast<float>(
              yrow[j] * (grow[j] - dot));
        }
      }
      return std::vector<Tensor>{grad_in};
    });
  }
  return out;
}

Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads) {
  Tensor probs;
  Tensor out = kernels::Attention(q, k, v, num_heads, &probs);
  if (AnyRequiresGrad({&q, &k, &v})) {
    Record(&out, "AttentionBackward", {&q, &k, &v},
           [q, k, v, probs, num_heads](std::vector<Tensor> grads) {
             kernels::AttentionGrads g = kernels::AttentionBackward(
                 FirstGrad(grads), q, k, v, probs, num_heads);
             return std::vector<Tensor>{g.q, g.k, g.v};
           });
  }
  return out;
}

// ---- Reductions / losses -----------------------------------------------------------------

Tensor SumAll(const Tensor& a) {
  Tensor out = kernels::SumAll(a);
  if (AnyRequiresGrad({&a})) {
    std::vector<int64_t> shape = a.shape();
    Record(&out, "SumAllBackward", {&a}, [shape](std::vector<Tensor> grads) {
      const double g = FirstGrad(grads).Item();
      return std::vector<Tensor>{Tensor::Full(shape, g)};
    });
  }
  return out;
}

Tensor MeanAll(const Tensor& a) {
  Tensor out = kernels::MeanAll(a);
  if (AnyRequiresGrad({&a})) {
    std::vector<int64_t> shape = a.shape();
    const double inv = 1.0 / static_cast<double>(a.numel());
    Record(&out, "MeanAllBackward", {&a},
           [shape, inv](std::vector<Tensor> grads) {
             const double g = FirstGrad(grads).Item() * inv;
             return std::vector<Tensor>{Tensor::Full(shape, g)};
           });
  }
  return out;
}

Tensor MSELoss(const Tensor& prediction, const Tensor& target) {
  DDPKIT_CHECK_EQ(prediction.numel(), target.numel());
  Tensor diff = kernels::Sub(prediction, target);
  Tensor out = kernels::MeanAll(kernels::Mul(diff, diff));
  if (AnyRequiresGrad({&prediction})) {
    Tensor sdiff = diff;
    const double inv = 2.0 / static_cast<double>(prediction.numel());
    Record(&out, "MSELossBackward", {&prediction},
           [sdiff, inv](std::vector<Tensor> grads) {
             const double g = FirstGrad(grads).Item();
             return std::vector<Tensor>{kernels::Scale(sdiff, g * inv)};
           });
  }
  return out;
}

Tensor CrossEntropyLoss(const Tensor& logits, const Tensor& targets) {
  DDPKIT_CHECK_EQ(logits.dim(), 2);
  DDPKIT_CHECK(targets.dtype() == DType::kInt64);
  const int64_t m = logits.size(0), n = logits.size(1);
  DDPKIT_CHECK_EQ(targets.numel(), m);

  Tensor log_probs = kernels::LogSoftmax(logits);
  const int64_t* pt = targets.data<int64_t>();
  const float* plp = log_probs.data<float>();
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    DDPKIT_CHECK(pt[i] >= 0 && pt[i] < n);
    loss -= plp[i * n + pt[i]];
  }
  loss /= static_cast<double>(m);
  Tensor out = Tensor::Full({1}, loss);

  if (AnyRequiresGrad({&logits})) {
    Tensor slp = log_probs, st = targets;
    Record(&out, "CrossEntropyLossBackward", {&logits},
           [slp, st, m, n](std::vector<Tensor> grads) {
             const double g = FirstGrad(grads).Item() / m;
             Tensor grad_logits = kernels::Exp(slp);
             const int64_t* pt = st.data<int64_t>();
             float* pg = grad_logits.data<float>();
             for (int64_t i = 0; i < m; ++i) {
               for (int64_t j = 0; j < n; ++j) {
                 double p = pg[i * n + j];
                 if (j == pt[i]) p -= 1.0;
                 pg[i * n + j] = static_cast<float>(p * g);
               }
             }
             return std::vector<Tensor>{grad_logits};
           });
  }
  return out;
}

}  // namespace ddpkit::ops
