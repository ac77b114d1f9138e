#ifndef DDPKIT_TENSOR_TENSOR_OPS_H_
#define DDPKIT_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "common/vec.h"
#include "tensor/tensor.h"

namespace ddpkit::kernels {

/// Raw float32 compute kernels with no autograd involvement. The autograd
/// layer (autograd/ops.h) wraps these into differentiable operations.
/// All kernels require contiguous float32 inputs unless noted.

// ---- Elementwise ---------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, double s);
Tensor AddScalar(const Tensor& a, double s);
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);

/// In-place y += alpha * x (BLAS axpy). Shapes must match in numel.
void Axpy(double alpha, const Tensor& x, Tensor* y);
/// In-place y *= s.
void ScaleInPlace(Tensor* y, double s);
/// In-place elementwise sum into `dst`: dst += src.
void AddInPlace(Tensor* dst, const Tensor& src);
/// One SGD step on parameter `p` with gradient `g` and, unless `m` is
/// nullptr, momentum buffer `m` (vec::SgdStep's sequence, in place).
void SgdStep(Tensor* p, const Tensor& g, Tensor* m,
             const vec::SgdCoefficients& c);

// ---- Activations ----------------------------------------------------------

Tensor Relu(const Tensor& a);
/// dL/dx = dL/dy where x > 0 else 0.
Tensor ReluBackward(const Tensor& grad_out, const Tensor& input);
Tensor Gelu(const Tensor& a);
Tensor GeluBackward(const Tensor& grad_out, const Tensor& input);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// ---- Linear algebra ---------------------------------------------------------

/// C[m,n] = A[m,k] @ B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C[m,n] = A^T[m,k] @ B[k,n] where A is [k,m].
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] @ B^T[k,n] where B is [n,k].
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
Tensor Transpose2D(const Tensor& a);

/// out[i, j] = a[i, j] + bias[j] for a [m, n] and bias [n].
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);
/// Column-sum of a [m, n] matrix -> [n]. (Bias gradient.)
Tensor SumRows(const Tensor& a);

// ---- Convolution (NCHW) ------------------------------------------------------

struct Conv2dArgs {
  int64_t stride = 1;
  int64_t padding = 0;
};

/// input [N, Cin, H, W], weight [Cout, Cin, kH, kW] -> [N, Cout, H', W'].
Tensor Conv2d(const Tensor& input, const Tensor& weight, const Conv2dArgs& args);
Tensor Conv2dBackwardInput(const Tensor& grad_out, const Tensor& weight,
                           const std::vector<int64_t>& input_shape,
                           const Conv2dArgs& args);
Tensor Conv2dBackwardWeight(const Tensor& grad_out, const Tensor& input,
                            const std::vector<int64_t>& weight_shape,
                            const Conv2dArgs& args);

/// 2x2 max pooling with stride 2. `argmax` (out) receives the flat input
/// offset of each selected element, for the backward pass.
Tensor MaxPool2x2(const Tensor& input, Tensor* argmax);
/// Scatters grad_out back to the positions recorded in `argmax`.
Tensor MaxPool2x2Backward(const Tensor& grad_out, const Tensor& argmax,
                          const std::vector<int64_t>& input_shape);

/// 2x2 average pooling with stride 2 (used by the tiny ResNet).
Tensor AvgPool2x2(const Tensor& input);
Tensor AvgPool2x2Backward(const Tensor& grad_out,
                          const std::vector<int64_t>& input_shape);
/// Global average pool over H,W: [N, C, H, W] -> [N, C].
Tensor GlobalAvgPool(const Tensor& input);
Tensor GlobalAvgPoolBackward(const Tensor& grad_out,
                             const std::vector<int64_t>& input_shape);

// ---- Reductions & softmax -----------------------------------------------------

Tensor SumAll(const Tensor& a);   // -> scalar [1]
Tensor MeanAll(const Tensor& a);  // -> scalar [1]
/// Row-wise softmax of [m, n].
Tensor Softmax(const Tensor& a);
/// Row-wise log-softmax of [m, n].
Tensor LogSoftmax(const Tensor& a);
/// Row-wise argmax of [m, n] -> int64 [m].
Tensor ArgMaxRows(const Tensor& a);

// ---- Attention -------------------------------------------------------------------

/// Scaled-dot-product attention over `num_heads` heads of q, k, v
/// [B, S, D]. Head h is columns [h·dh, (h+1)·dh) of each, dh = D /
/// num_heads, read in place through the matmul tile's strides:
/// P = softmax(q_h k_hᵀ · (1/√dh)) row by row, and out_h = P v_h in the
/// same columns of out. `probs` receives every P, [B, num_heads, S, S],
/// for the backward pass. Each product has the bits the 2-D kernel of its
/// form gives: q_h k_hᵀ MatMulTransB's, P v_h MatMul's.
Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, Tensor* probs);

struct AttentionGrads {
  Tensor q, k, v;
};
/// The gradients of Attention for grad_out [B, S, D], from its inputs and
/// the probs it returned, head by head: dV = Pᵀ dO and dK = dAᵀ Q
/// (MatMulTransA's bits), dP = dO Vᵀ (MatMulTransB's), dQ = dA K
/// (MatMul's), where dA = P ⊙ (dP − rowsum(dP ⊙ P)) / √dh is evaluated in
/// double and rounded once.
AttentionGrads AttentionBackward(const Tensor& grad_out, const Tensor& q,
                                 const Tensor& k, const Tensor& v,
                                 const Tensor& probs, int64_t num_heads);

// ---- Embedding ------------------------------------------------------------------

/// indices int64 [n], table [vocab, dim] -> [n, dim].
Tensor EmbeddingLookup(const Tensor& indices, const Tensor& table);
/// Scatter-add of grad_out rows into a zero table gradient.
Tensor EmbeddingBackward(const Tensor& grad_out, const Tensor& indices,
                         const std::vector<int64_t>& table_shape);

// ---- Comparisons -----------------------------------------------------------------

/// Max absolute elementwise difference (for tests); NaN if either tensor
/// holds a NaN, so a NaN never reads as a match.
double MaxAbsDiff(const Tensor& a, const Tensor& b);
/// True if all |a-b| <= atol + rtol*|b|; a NaN is never close, and an
/// infinity is close only to itself.
bool AllClose(const Tensor& a, const Tensor& b, double rtol = 1e-5,
              double atol = 1e-7);

}  // namespace ddpkit::kernels

#endif  // DDPKIT_TENSOR_TENSOR_OPS_H_
