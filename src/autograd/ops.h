#ifndef DDPKIT_AUTOGRAD_OPS_H_
#define DDPKIT_AUTOGRAD_OPS_H_

#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace ddpkit::ops {

/// Differentiable operations. Each runs the forward kernel and, when grad
/// mode is on and an input requires grad, records a backward node into the
/// dynamic autograd graph (rebuilt every forward pass, as in PyTorch — this
/// dynamism is what creates the paper's Fig 3 ordering/skipping hazards).

// ---- Elementwise -----------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, double s);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);

/// Inverted dropout: with probability p an element is zeroed, survivors
/// are scaled by 1/(1-p). `rng` drives the mask; identical seeds across
/// ranks give identical masks (the coordination DDP needs for any
/// stochastic regularizer). No-op when p == 0.
Tensor Dropout(const Tensor& a, double p, Rng* rng);

// ---- Activations ------------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor Gelu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// ---- Linear algebra -----------------------------------------------------------

/// out[m, n] = a[m, n_in] @ weight^T[n_in, n] + bias[n]; bias optional.
Tensor Linear(const Tensor& input, const Tensor& weight, const Tensor& bias);
/// Plain 2-D matmul.
Tensor MatMul(const Tensor& a, const Tensor& b);

// ---- Shape ----------------------------------------------------------------------

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape);

/// Stacks `repeats` copies of a [m, n] tensor into [repeats*m, n]; the
/// backward pass sums the tiles. Used to broadcast positional embeddings
/// across a batch.
Tensor TileRows(const Tensor& a, int64_t repeats);

// ---- Convolution / pooling ---------------------------------------------------------

/// input [N,Cin,H,W], weight [Cout,Cin,kH,kW], optional bias [Cout].
Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t stride, int64_t padding);
Tensor AvgPool2x2(const Tensor& input);
Tensor MaxPool2x2(const Tensor& input);
/// [N,C,H,W] -> [N,C].
Tensor GlobalAvgPool(const Tensor& input);

// ---- Normalization ------------------------------------------------------------------

/// Training-mode batch norm over N,H,W per channel; returns the normalized
/// output and exposes the batch statistics so the module can maintain
/// running buffers. gamma/beta are [C].
struct BatchNormResult {
  Tensor output;
  Tensor batch_mean;  // [C], detached
  Tensor batch_var;   // [C], biased variance, detached
};
BatchNormResult BatchNorm2d(const Tensor& input, const Tensor& gamma,
                            const Tensor& beta, double eps);
/// Inference-mode batch norm using provided running statistics (no graph
/// recorded through the statistics).
Tensor BatchNorm2dInference(const Tensor& input, const Tensor& gamma,
                            const Tensor& beta, const Tensor& running_mean,
                            const Tensor& running_var, double eps);

/// Layer norm over the last dimension of [*, D]; gamma/beta are [D].
Tensor LayerNorm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                 double eps);

// ---- Embedding / attention -------------------------------------------------------------

/// indices int64 [n], table [vocab, dim] -> [n, dim].
Tensor Embedding(const Tensor& indices, const Tensor& table);

/// Row-wise softmax of [m, n].
Tensor Softmax(const Tensor& a);

/// Multi-head scaled-dot-product attention as one node: q, k, v are
/// [B, S, D] and head h is columns [h·dh, (h+1)·dh), dh = D / num_heads;
/// returns softmax(q_h k_hᵀ / √dh) v_h in those columns, [B, S, D]
/// (kernels::Attention).
Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads);

// ---- Reductions / losses ----------------------------------------------------------------

Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);

/// Mean-squared-error loss between prediction and target (target has no
/// gradient), returns scalar [1].
Tensor MSELoss(const Tensor& prediction, const Tensor& target);

/// Cross-entropy over logits [m, n] with int64 class targets [m]; mean
/// reduction, returns scalar [1].
Tensor CrossEntropyLoss(const Tensor& logits, const Tensor& targets);

}  // namespace ddpkit::ops

#endif  // DDPKIT_AUTOGRAD_OPS_H_
