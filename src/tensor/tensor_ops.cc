#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/vec.h"

namespace ddpkit::kernels {

namespace {

void CheckFloatContiguous(const Tensor& t, const char* what) {
  DDPKIT_CHECK(t.defined()) << what << " undefined";
  DDPKIT_CHECK(t.dtype() == DType::kFloat32) << what << " must be float32";
  DDPKIT_CHECK(t.is_contiguous()) << what << " must be contiguous";
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  DDPKIT_CHECK(a.shape() == b.shape())
      << "shape mismatch: " << a.ShapeString() << " vs " << b.ShapeString()
      << " (elementwise kernels do not broadcast)";
}

/// The elementwise helpers: the batch fn receives whole [lo, hi) spans and
/// forwards them to a vec.h entry point.
template <typename BatchFn>
Tensor UnaryBatch(const Tensor& a, BatchFn fn) {
  CheckFloatContiguous(a, "input");
  Tensor out = Tensor::Empty(a.shape(), DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, a.numel(), kParallelGrain, [&](int64_t b, int64_t e) {
    fn(pa + b, po + b, e - b);
  });
  return out;
}

template <typename BatchFn>
Tensor BinaryBatch(const Tensor& a, const Tensor& b, BatchFn fn) {
  CheckFloatContiguous(a, "lhs");
  CheckFloatContiguous(b, "rhs");
  CheckSameShape(a, b);
  Tensor out = Tensor::Empty(a.shape(), DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, a.numel(), kParallelGrain, [&](int64_t lo, int64_t hi) {
    fn(pa + lo, pb + lo, po + lo, hi - lo);
  });
  return out;
}

}  // namespace

// ---- Elementwise ------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Add(x, y, d, n); });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Sub(x, y, d, n); });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Mul(x, y, d, n); });
}

Tensor Scale(const Tensor& a, double s) {
  const float fs = static_cast<float>(s);
  return UnaryBatch(a, [fs](const float* x, float* d, int64_t n) {
    vec::Scale(x, fs, d, n);
  });
}

Tensor AddScalar(const Tensor& a, double s) {
  const float fs = static_cast<float>(s);
  return UnaryBatch(a, [fs](const float* x, float* d, int64_t n) {
    vec::AddScalar(x, fs, d, n);
  });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Div(x, y, d, n); });
}

Tensor Neg(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Neg(x, d, n); });
}

Tensor Exp(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Exp(x, d, n); });
}

Tensor Log(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Log(x, d, n); });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Sqrt(x, d, n); });
}

void Axpy(double alpha, const Tensor& x, Tensor* y) {
  DDPKIT_CHECK(y != nullptr);
  CheckFloatContiguous(x, "x");
  CheckFloatContiguous(*y, "y");
  CheckSameShape(x, *y);
  const float a = static_cast<float>(alpha);
  const float* px = x.data<float>();
  float* py = y->data<float>();
  ParallelFor(0, x.numel(), kParallelGrain, [&](int64_t lo, int64_t hi) {
    vec::Axpy(a, px + lo, py + lo, hi - lo);
  });
}

void ScaleInPlace(Tensor* y, double s) {
  DDPKIT_CHECK(y != nullptr);
  CheckFloatContiguous(*y, "y");
  const float fs = static_cast<float>(s);
  float* py = y->data<float>();
  ParallelFor(0, y->numel(), kParallelGrain, [&](int64_t lo, int64_t hi) {
    vec::ScaleInPlace(py + lo, fs, hi - lo);
  });
}

void AddInPlace(Tensor* dst, const Tensor& src) { Axpy(1.0, src, dst); }

void SgdStep(Tensor* p, const Tensor& g, Tensor* m,
             const vec::SgdCoefficients& c) {
  DDPKIT_CHECK(p != nullptr);
  CheckFloatContiguous(*p, "param");
  CheckFloatContiguous(g, "grad");
  CheckSameShape(g, *p);
  float* pm = nullptr;
  if (m != nullptr) {
    CheckFloatContiguous(*m, "momentum");
    CheckSameShape(*m, *p);
    pm = m->data<float>();
  }
  float* pp = p->data<float>();
  const float* pg = g.data<float>();
  ParallelFor(0, p->numel(), kParallelGrain, [&](int64_t lo, int64_t hi) {
    vec::SgdStep(pp + lo, pg + lo, pm == nullptr ? nullptr : pm + lo,
                 hi - lo, c);
  });
}

// ---- Activations -------------------------------------------------------------

Tensor Relu(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Relu(x, d, n); });
}

Tensor ReluBackward(const Tensor& grad_out, const Tensor& input) {
  return BinaryBatch(grad_out, input,
                     [](const float* g, const float* x, float* d, int64_t n) {
                       vec::ReluBackward(g, x, d, n);
                     });
}

Tensor Gelu(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Gelu(x, d, n); });
}

Tensor GeluBackward(const Tensor& grad_out, const Tensor& input) {
  return BinaryBatch(grad_out, input,
                     [](const float* g, const float* x, float* d, int64_t n) {
                       vec::GeluBackward(g, x, d, n);
                     });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Sigmoid(x, d, n); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Tanh(x, d, n); });
}

// ---- Linear algebra -------------------------------------------------------------

namespace {

// Rows [rb, re) of out[m, n] = A · B for a row-major B[k, n], where
// A(i, p) = a[i * a_row + p * a_p]: each row starts at +0.0f and takes one
// vec::Axpy of B's row p per nonzero A(i, p), in ascending p. The strides
// arrive by value, so they stay in registers across the Axpy calls and
// the unpredictable zero test resolves early.
void RowLoopMatMul(const float* a, int64_t a_row, int64_t a_p, const float* b,
                   int64_t k, int64_t n, float* out, int64_t rb, int64_t re) {
  for (int64_t i = rb; i < re; ++i) {
    float* orow = out + i * n;
    std::fill(orow, orow + n, 0.0f);
    const float* arow = a + i * a_row;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p * a_p];
      if (av == 0.0f) continue;
      vec::Axpy(av, b + p * n, orow, n);
    }
  }
}

// Columns [0, cols) of out[m, ·] = A · B, rows ldo apart, through
// kTileRows-row tiles: A(i, p) = a[i * a_row + p * a_p] and B's k rows
// `cols` floats wide, ldb apart (a strip of B in place, or a packed panel).
void TileStrip(const float* a, int64_t a_row, int64_t a_p, int64_t m,
               const float* b, int64_t ldb, int64_t k, float* out,
               int64_t ldo, int cols, bool skip_zero) {
  constexpr int64_t kRows = vec::kTileRows;
  for (int64_t i = 0; i < m; i += kRows) {
    vec::MatMulTile(a + i * a_row, a_row, a_p,
                    static_cast<int>(std::min(kRows, m - i)), b, ldb, k,
                    out + i * ldo, ldo, cols, skip_zero);
  }
}

// This thread's panel for PackPanel: k rows of kTileCols floats, reused
// across calls. It starts on a 64-byte line, so each 16-float half of a
// panel row is one cache line; the heap's 16-byte alignment packed 1.2×
// slower at k = 1024.
float* PanelScratch(int64_t k) {
  constexpr size_t kLineFloats = 64 / sizeof(float);
  thread_local std::vector<float> panel;
  const size_t need = static_cast<size_t>(k * vec::kTileCols) + kLineFloats;
  if (panel.size() < need) panel.resize(need);
  const size_t misalign =
      reinterpret_cast<uintptr_t>(panel.data()) / sizeof(float) % kLineFloats;
  return panel.data() + (kLineFloats - misalign) % kLineFloats;
}

// out[m, n] = A · B as above, where A spans m·k contiguous floats
// (MatMul's A, or MatMulTransA's A read transposed). Both paths give every
// output the row loop's bits: +0.0f, then av · B[p, j] added for every
// nonzero av = A(i, p) in ascending p, mul then add. A's zero count only
// picks the faster one:
// - a quarter or more zeros (ReLU gradients): the row loop, which skips a
//   whole row of B per zero and streams B's rows in order;
// - fewer: the register tile over kTileCols-column strips of B read in
//   place, with the zero skip as a lane mask only if A holds any zero.
// Each output has one writer (a row, or a tile lane), so results do not
// depend on the pool size either.
void StridedMatMul(const float* a, int64_t a_row, int64_t a_p,
                   const float* b, int64_t m, int64_t k, int64_t n,
                   float* out) {
  const int64_t zeros = vec::CountZeros(a, m * k);
  if (4 * zeros >= m * k) {
    ParallelFor(0, m, GrainFromCost(k * n), [&](int64_t rb, int64_t re) {
      RowLoopMatMul(a, a_row, a_p, b, k, n, out, rb, re);
    });
    return;
  }
  constexpr int64_t kCols = vec::kTileCols;
  const int64_t strips = (n + kCols - 1) / kCols;
  const int64_t grain = GrainFromCost(m * k * kCols);
  ParallelFor(0, strips, grain, [&](int64_t sb, int64_t se) {
    for (int64_t s = sb; s < se; ++s) {
      const int64_t j0 = s * kCols;
      TileStrip(a, a_row, a_p, m, b + j0, n, k, out + j0, n,
                static_cast<int>(std::min(kCols, n - j0)),
                /*skip_zero=*/zeros > 0);
    }
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckFloatContiguous(a, "a");
  CheckFloatContiguous(b, "b");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  DDPKIT_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  DDPKIT_CHECK_EQ(k, b.size(0));
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  StridedMatMul(a.data<float>(), k, 1, b.data<float>(), m, k, n,
                out.data<float>());
  return out;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  CheckFloatContiguous(a, "a");
  CheckFloatContiguous(b, "b");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  DDPKIT_CHECK_EQ(b.dim(), 2);
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  DDPKIT_CHECK_EQ(k, b.size(0));
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  StridedMatMul(a.data<float>(), 1, m, b.data<float>(), m, k, n,
                out.data<float>());
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CheckFloatContiguous(a, "a");
  CheckFloatContiguous(b, "b");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  DDPKIT_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  DDPKIT_CHECK_EQ(k, b.size(1));
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  // One task per kTileCols-column strip of the output: it packs those rows
  // of b once and runs every kTileRows-row tile of a against the packed
  // panel. Each output element is one tile lane with the serial loop's
  // roundings, so results do not depend on the pool size or SIMD level.
  constexpr int64_t kCols = vec::kTileCols;
  const int64_t strips = (n + kCols - 1) / kCols;
  const int64_t grain = GrainFromCost(m * k * kCols);
  ParallelFor(0, strips, grain, [&](int64_t sb, int64_t se) {
    // Per-thread, reused across calls: k × 128 bytes (128 KiB at k = 1024).
    float* panel = PanelScratch(k);
    for (int64_t s = sb; s < se; ++s) {
      const int64_t j0 = s * kCols;
      const int cols = static_cast<int>(std::min(kCols, n - j0));
      vec::PackPanel(pb + j0 * k, k, cols, k, panel);
      TileStrip(pa, k, 1, m, panel, kCols, k, po + j0, n, cols,
                /*skip_zero=*/false);
    }
  });
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({n, m}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
    }
  });
  return out;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  CheckFloatContiguous(a, "a");
  CheckFloatContiguous(bias, "bias");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  DDPKIT_CHECK_EQ(bias.numel(), a.size(1));
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pbias = bias.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      vec::Add(pa + i * n, pbias, po + i * n, n);
    }
  });
  return out;
}

Tensor SumRows(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  // Column-partitioned: each output element is owned by one thread and
  // accumulates rows in ascending order, exactly as the serial loop does.
  ParallelFor(0, n, GrainFromCost(m), [&](int64_t jb, int64_t je) {
    std::fill(po + jb, po + je, 0.0f);
    for (int64_t i = 0; i < m; ++i) {
      vec::AccumulateAdd(po + jb, pa + i * n + jb, je - jb);
    }
  });
  return out;
}

// ---- Convolution ----------------------------------------------------------------

namespace {

int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t stride,
                    int64_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight,
              const Conv2dArgs& args) {
  CheckFloatContiguous(input, "input");
  CheckFloatContiguous(weight, "weight");
  DDPKIT_CHECK_EQ(input.dim(), 4);
  DDPKIT_CHECK_EQ(weight.dim(), 4);
  const int64_t batch = input.size(0), cin = input.size(1), h = input.size(2),
                w = input.size(3);
  const int64_t cout = weight.size(0), kh = weight.size(2),
                kw = weight.size(3);
  DDPKIT_CHECK_EQ(cin, weight.size(1));
  const int64_t oh = ConvOutSize(h, kh, args.stride, args.padding);
  const int64_t ow = ConvOutSize(w, kw, args.stride, args.padding);
  DDPKIT_CHECK(oh > 0 && ow > 0);
  Tensor out =
      Tensor::Empty({batch, cout, oh, ow}, DType::kFloat32, input.device_id());
  const float* pi = input.data<float>();
  const float* pw = weight.data<float>();
  float* po = out.data<float>();
  // One work item per output scanline (n, oc, y); every output element is
  // written by exactly one thread.
  ParallelFor(0, batch * cout * oh, GrainFromCost(ow * cin * kh * kw),
              [&](int64_t rb, int64_t re) {
    for (int64_t row = rb; row < re; ++row) {
      const int64_t y = row % oh;
      const int64_t oc = (row / oh) % cout;
      const int64_t n = row / (oh * cout);
      for (int64_t x = 0; x < ow; ++x) {
        float acc = 0.0f;
        for (int64_t ic = 0; ic < cin; ++ic) {
          for (int64_t ky = 0; ky < kh; ++ky) {
            const int64_t iy = y * args.stride - args.padding + ky;
            if (iy < 0 || iy >= h) continue;
            for (int64_t kx = 0; kx < kw; ++kx) {
              const int64_t ix = x * args.stride - args.padding + kx;
              if (ix < 0 || ix >= w) continue;
              acc += pi[((n * cin + ic) * h + iy) * w + ix] *
                     pw[((oc * cin + ic) * kh + ky) * kw + kx];
            }
          }
        }
        po[((n * cout + oc) * oh + y) * ow + x] = acc;
      }
    }
  });
  return out;
}

Tensor Conv2dBackwardInput(const Tensor& grad_out, const Tensor& weight,
                           const std::vector<int64_t>& input_shape,
                           const Conv2dArgs& args) {
  CheckFloatContiguous(grad_out, "grad_out");
  CheckFloatContiguous(weight, "weight");
  const int64_t batch = input_shape[0], cin = input_shape[1],
                h = input_shape[2], w = input_shape[3];
  const int64_t cout = weight.size(0), kh = weight.size(2),
                kw = weight.size(3);
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_in =
      Tensor::Zeros(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  const float* pw = weight.data<float>();
  float* pi = grad_in.data<float>();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const float g = pg[((n * cout + oc) * oh + y) * ow + x];
          if (g == 0.0f) continue;
          for (int64_t ic = 0; ic < cin; ++ic) {
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = y * args.stride - args.padding + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = x * args.stride - args.padding + kx;
                if (ix < 0 || ix >= w) continue;
                pi[((n * cin + ic) * h + iy) * w + ix] +=
                    g * pw[((oc * cin + ic) * kh + ky) * kw + kx];
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor Conv2dBackwardWeight(const Tensor& grad_out, const Tensor& input,
                            const std::vector<int64_t>& weight_shape,
                            const Conv2dArgs& args) {
  CheckFloatContiguous(grad_out, "grad_out");
  CheckFloatContiguous(input, "input");
  const int64_t batch = input.size(0), cin = input.size(1), h = input.size(2),
                w = input.size(3);
  const int64_t cout = weight_shape[0], kh = weight_shape[2],
                kw = weight_shape[3];
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_w =
      Tensor::Zeros(weight_shape, DType::kFloat32, input.device_id());
  const float* pg = grad_out.data<float>();
  const float* pi = input.data<float>();
  float* pw = grad_w.data<float>();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const float g = pg[((n * cout + oc) * oh + y) * ow + x];
          if (g == 0.0f) continue;
          for (int64_t ic = 0; ic < cin; ++ic) {
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = y * args.stride - args.padding + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = x * args.stride - args.padding + kx;
                if (ix < 0 || ix >= w) continue;
                pw[((oc * cin + ic) * kh + ky) * kw + kx] +=
                    g * pi[((n * cin + ic) * h + iy) * w + ix];
              }
            }
          }
        }
      }
    }
  }
  return grad_w;
}

Tensor MaxPool2x2(const Tensor& input, Tensor* argmax) {
  CheckFloatContiguous(input, "input");
  DDPKIT_CHECK(argmax != nullptr);
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t batch = input.size(0), c = input.size(1), h = input.size(2),
                w = input.size(3);
  DDPKIT_CHECK(h % 2 == 0 && w % 2 == 0);
  const int64_t oh = h / 2, ow = w / 2;
  Tensor out =
      Tensor::Empty({batch, c, oh, ow}, DType::kFloat32, input.device_id());
  *argmax = Tensor::Empty({batch, c, oh, ow}, DType::kInt64,
                          input.device_id());
  const float* pi = input.data<float>();
  float* po = out.data<float>();
  int64_t* pa = argmax->data<int64_t>();
  ParallelFor(0, batch * c * oh, GrainFromCost(ow * 4),
              [&](int64_t rb, int64_t re) {
    for (int64_t row = rb; row < re; ++row) {
      const int64_t y = row % oh;
      const int64_t nc = row / oh;  // flattened (n, ch)
      for (int64_t x = 0; x < ow; ++x) {
        const int64_t base = (nc * h + 2 * y) * w + 2 * x;
        const int64_t candidates[4] = {base, base + 1, base + w,
                                       base + w + 1};
        int64_t best = candidates[0];
        for (int k = 1; k < 4; ++k) {
          if (pi[candidates[k]] > pi[best]) best = candidates[k];
        }
        const int64_t out_idx = (nc * oh + y) * ow + x;
        // ddplint: allow(raw-elementwise-loop) per-window argmax gather
        po[out_idx] = pi[best];
        pa[out_idx] = best;
      }
    }
  });
  return out;
}

Tensor MaxPool2x2Backward(const Tensor& grad_out, const Tensor& argmax,
                          const std::vector<int64_t>& input_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  DDPKIT_CHECK(argmax.dtype() == DType::kInt64);
  DDPKIT_CHECK_EQ(argmax.numel(), grad_out.numel());
  Tensor grad_in =
      Tensor::Zeros(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  const int64_t* pa = argmax.data<int64_t>();
  float* pi = grad_in.data<float>();
  const int64_t n = grad_out.numel();
  const int64_t in_numel = grad_in.numel();
  for (int64_t i = 0; i < n; ++i) {
    DDPKIT_CHECK(pa[i] >= 0 && pa[i] < in_numel);
    pi[pa[i]] += pg[i];
  }
  return grad_in;
}

Tensor AvgPool2x2(const Tensor& input) {
  CheckFloatContiguous(input, "input");
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t batch = input.size(0), c = input.size(1), h = input.size(2),
                w = input.size(3);
  DDPKIT_CHECK(h % 2 == 0 && w % 2 == 0);
  const int64_t oh = h / 2, ow = w / 2;
  Tensor out =
      Tensor::Empty({batch, c, oh, ow}, DType::kFloat32, input.device_id());
  const float* pi = input.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, batch * c * oh, GrainFromCost(ow * 4),
              [&](int64_t rb, int64_t re) {
    for (int64_t row = rb; row < re; ++row) {
      const int64_t y = row % oh;
      const int64_t nc = row / oh;
      for (int64_t x = 0; x < ow; ++x) {
        const int64_t base = (nc * h + 2 * y) * w + 2 * x;
        po[(nc * oh + y) * ow + x] =
            0.25f * (pi[base] + pi[base + 1] + pi[base + w] +
                     pi[base + w + 1]);
      }
    }
  });
  return out;
}

Tensor AvgPool2x2Backward(const Tensor& grad_out,
                          const std::vector<int64_t>& input_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  const int64_t batch = input_shape[0], c = input_shape[1],
                h = input_shape[2], w = input_shape[3];
  const int64_t oh = h / 2, ow = w / 2;
  Tensor grad_in =
      Tensor::Zeros(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  float* pi = grad_in.data<float>();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const float g = 0.25f * pg[((n * c + ch) * oh + y) * ow + x];
          const int64_t base = ((n * c + ch) * h + 2 * y) * w + 2 * x;
          pi[base] += g;
          pi[base + 1] += g;
          pi[base + w] += g;
          pi[base + w + 1] += g;
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool(const Tensor& input) {
  CheckFloatContiguous(input, "input");
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t batch = input.size(0), c = input.size(1), h = input.size(2),
                w = input.size(3);
  Tensor out = Tensor::Empty({batch, c}, DType::kFloat32, input.device_id());
  const float* pi = input.data<float>();
  float* po = out.data<float>();
  const float inv = 1.0f / static_cast<float>(h * w);
  ParallelFor(0, batch * c, GrainFromCost(h * w),
              [&](int64_t cb, int64_t ce) {
    for (int64_t nc = cb; nc < ce; ++nc) {
      float acc = 0.0f;
      const float* base = pi + nc * h * w;
      for (int64_t i = 0; i < h * w; ++i) acc += base[i];
      po[nc] = acc * inv;
    }
  });
  return out;
}

Tensor GlobalAvgPoolBackward(const Tensor& grad_out,
                             const std::vector<int64_t>& input_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  const int64_t batch = input_shape[0], c = input_shape[1],
                h = input_shape[2], w = input_shape[3];
  Tensor grad_in =
      Tensor::Empty(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  float* pi = grad_in.data<float>();
  const float inv = 1.0f / static_cast<float>(h * w);
  ParallelFor(0, batch * c, GrainFromCost(h * w),
              [&](int64_t cb, int64_t ce) {
    for (int64_t nc = cb; nc < ce; ++nc) {
      const float g = pg[nc] * inv;
      float* base = pi + nc * h * w;
      for (int64_t i = 0; i < h * w; ++i) base[i] = g;
    }
  });
  return grad_in;
}

// ---- Reductions & softmax ----------------------------------------------------------

Tensor SumAll(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  const float* pa = a.data<float>();
  // Chunked double-precision partial sums combined in chunk-index order:
  // the summation order depends only on numel and the grain, never on the
  // thread count.
  const double acc = ParallelReduce(
      0, a.numel(), kParallelGrain, 0.0,
      [&](int64_t b, int64_t e) {
        double s = 0.0;
        for (int64_t i = b; i < e; ++i) s += pa[i];
        return s;
      },
      [](double x, double y) { return x + y; });
  Tensor out = Tensor::Empty({1}, DType::kFloat32, a.device_id());
  out.data<float>()[0] = static_cast<float>(acc);
  return out;
}

Tensor MeanAll(const Tensor& a) {
  Tensor s = SumAll(a);
  s.data<float>()[0] /= static_cast<float>(a.numel());
  return s;
}

namespace {

float RowMax(const float* row, int64_t n) {
  float mx = row[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  return mx;
}

// e[j] = exp(row[j] - shift) for j < n; returns their sum, added in
// ascending j. x - c and x + (-c) round identically in IEEE arithmetic.
float ExpShiftedRowSum(const float* row, float shift, int64_t n, float* e) {
  vec::AddScalar(row, -shift, e, n);
  vec::Exp(e, e, n);
  float sum = 0.0f;
  for (int64_t j = 0; j < n; ++j) sum += e[j];
  return sum;
}

}  // namespace

Tensor Softmax(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(4 * n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* row = pa + i * n;
      float* orow = po + i * n;
      const float denom = ExpShiftedRowSum(row, RowMax(row, n), n, orow);
      vec::ScaleInPlace(orow, 1.0f / denom, n);
    }
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(4 * n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* row = pa + i * n;
      float* orow = po + i * n;
      // orow holds exp(row - mx) until the last line overwrites it.
      const float mx = RowMax(row, n);
      float log_denom = ExpShiftedRowSum(row, mx, n, orow);
      vec::Log(&log_denom, &log_denom, 1);
      log_denom += mx;
      vec::AddScalar(row, -log_denom, orow, n);
    }
  });
  return out;
}

// ---- Attention ---------------------------------------------------------------------

namespace {

// The geometry of one Attention call: q, k, v and out are [batch, seq,
// dim], and head h of batch row b is the dh columns starting at Offset.
struct Heads {
  int64_t batch, seq, dim, num_heads, dh;

  Heads(const Tensor& q, const Tensor& k, const Tensor& v, int64_t heads) {
    CheckFloatContiguous(q, "q");
    CheckFloatContiguous(k, "k");
    CheckFloatContiguous(v, "v");
    DDPKIT_CHECK_EQ(q.dim(), 3);
    DDPKIT_CHECK(q.shape() == k.shape() && q.shape() == v.shape())
        << "q, k and v must share a shape";
    DDPKIT_CHECK(heads > 0 && q.size(2) % heads == 0)
        << "num_heads must divide the model dimension";
    batch = q.size(0);
    seq = q.size(1);
    dim = q.size(2);
    num_heads = heads;
    dh = dim / heads;
  }
  // Block bh = b · num_heads + h: its first element in q, k, v and out.
  int64_t Offset(int64_t bh) const {
    return bh / num_heads * seq * dim + bh % num_heads * dh;
  }
  // Each (batch, head) block runs its products in one task, so every
  // output element has one writer whatever the pool size.
  template <class F>
  void ForEachBlock(int64_t cost, const F& body) const {
    ParallelFor(0, batch * num_heads, GrainFromCost(cost),
                [&](int64_t lo, int64_t hi) {
                  for (int64_t bh = lo; bh < hi; ++bh) body(bh, Offset(bh));
                });
  }
};

// out[seq, n] = A · B for n = dh columns of B's rows in place, `dim`
// floats apart, in kTileCols strips; with the zero skip, the product
// MatMul and MatMulTransA give (StridedMatMul's row-loop semantics).
void HeadProduct(const float* a, int64_t a_row, int64_t a_p, const Heads& geo,
                 const float* b, float* out) {
  for (int64_t c0 = 0; c0 < geo.dh; c0 += vec::kTileCols) {
    const int cols =
        static_cast<int>(std::min<int64_t>(vec::kTileCols, geo.dh - c0));
    TileStrip(a, a_row, a_p, geo.seq, b + c0, geo.dim, geo.seq, out + c0,
              geo.dim, cols, /*skip_zero=*/true);
  }
}

// s[seq, seq] = x · yᵀ over the head's dh columns of x's and y's rows:
// MatMulTransB's packed panels and unmasked tile.
void HeadScores(const float* x, const float* y, const Heads& geo, float* s) {
  float* panel = PanelScratch(geo.dh);
  for (int64_t j0 = 0; j0 < geo.seq; j0 += vec::kTileCols) {
    const int cols =
        static_cast<int>(std::min<int64_t>(vec::kTileCols, geo.seq - j0));
    vec::PackPanel(y + j0 * geo.dim, geo.dim, cols, geo.dh, panel);
    TileStrip(x, geo.dim, 1, geo.seq, panel, vec::kTileCols, geo.dh, s + j0,
              geo.seq, cols, /*skip_zero=*/false);
  }
}

}  // namespace

Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, Tensor* probs) {
  DDPKIT_CHECK(probs != nullptr);
  const Heads geo(q, k, v, num_heads);
  const float scale =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(geo.dh)));
  Tensor out = Tensor::Empty(q.shape(), DType::kFloat32, q.device_id());
  *probs = Tensor::Empty({geo.batch, num_heads, geo.seq, geo.seq},
                         DType::kFloat32, q.device_id());
  const float* pq = q.data<float>();
  const float* pk = k.data<float>();
  const float* pv = v.data<float>();
  float* po = out.data<float>();
  float* pp = probs->data<float>();
  const int64_t seq = geo.seq;
  geo.ForEachBlock(2 * seq * seq * geo.dh, [&](int64_t bh, int64_t off) {
    float* p = pp + bh * seq * seq;
    HeadScores(pq + off, pk + off, geo, p);
    for (int64_t i = 0; i < seq; ++i) {
      float* row = p + i * seq;
      vec::Scale(row, scale, row, seq);
      const float denom = ExpShiftedRowSum(row, RowMax(row, seq), seq, row);
      vec::ScaleInPlace(row, 1.0f / denom, seq);
    }
    HeadProduct(p, seq, 1, geo, pv + off, po + off);
  });
  return out;
}

AttentionGrads AttentionBackward(const Tensor& grad_out, const Tensor& q,
                                 const Tensor& k, const Tensor& v,
                                 const Tensor& probs, int64_t num_heads) {
  const Heads geo(q, k, v, num_heads);
  CheckFloatContiguous(grad_out, "grad_out");
  CheckFloatContiguous(probs, "probs");
  DDPKIT_CHECK(grad_out.shape() == q.shape());
  DDPKIT_CHECK_EQ(probs.numel(), geo.batch * num_heads * geo.seq * geo.seq);
  const double scale = 1.0 / std::sqrt(static_cast<double>(geo.dh));
  AttentionGrads grads{
      Tensor::Empty(q.shape(), DType::kFloat32, q.device_id()),
      Tensor::Empty(q.shape(), DType::kFloat32, q.device_id()),
      Tensor::Empty(q.shape(), DType::kFloat32, q.device_id())};
  const float* pg = grad_out.data<float>();
  const float* pq = q.data<float>();
  const float* pk = k.data<float>();
  const float* pv = v.data<float>();
  const float* pp = probs.data<float>();
  float* gq = grads.q.data<float>();
  float* gk = grads.k.data<float>();
  float* gv = grads.v.data<float>();
  const int64_t seq = geo.seq;
  geo.ForEachBlock(4 * seq * seq * geo.dh, [&](int64_t bh, int64_t off) {
    thread_local std::vector<float> scratch;
    scratch.resize(static_cast<size_t>(seq * seq));
    float* da = scratch.data();
    const float* p = pp + bh * seq * seq;
    // dV = Pᵀ dO, then dP = dO Vᵀ into da.
    HeadProduct(p, 1, seq, geo, pg + off, gv + off);
    HeadScores(pg + off, pv + off, geo, da);
    // The softmax backward, scaled, in double and in place over dP:
    // dA = P ⊙ (dP − Σ_j dP ⊙ P) · scale.
    for (int64_t i = 0; i < seq; ++i) {
      const float* prow = p + i * seq;
      float* drow = da + i * seq;
      double dot = 0.0;
      for (int64_t j = 0; j < seq; ++j) {
        dot += static_cast<double>(drow[j]) * prow[j];
      }
      for (int64_t j = 0; j < seq; ++j) {
        // ddplint: allow(raw-elementwise-loop) evaluated in double
        drow[j] = static_cast<float>(prow[j] * (drow[j] - dot) * scale);
      }
    }
    // dQ = dA K, dK = dAᵀ Q.
    HeadProduct(da, seq, 1, geo, pk + off, gq + off);
    HeadProduct(da, 1, seq, geo, pq + off, gk + off);
  });
  return grads;
}

Tensor ArgMaxRows(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m}, DType::kInt64, a.device_id());
  const float* pa = a.data<float>();
  int64_t* po = out.data<int64_t>();
  ParallelFor(0, m, GrainFromCost(n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* row = pa + i * n;
      int64_t best = 0;
      for (int64_t j = 1; j < n; ++j) {
        if (row[j] > row[best]) best = j;
      }
      po[i] = best;
    }
  });
  return out;
}

// ---- Embedding ----------------------------------------------------------------------

Tensor EmbeddingLookup(const Tensor& indices, const Tensor& table) {
  DDPKIT_CHECK(indices.dtype() == DType::kInt64);
  CheckFloatContiguous(table, "table");
  DDPKIT_CHECK_EQ(table.dim(), 2);
  const int64_t n = indices.numel();
  const int64_t vocab = table.size(0), dim = table.size(1);
  Tensor out = Tensor::Empty({n, dim}, DType::kFloat32, table.device_id());
  const int64_t* pidx = indices.data<int64_t>();
  const float* pt = table.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, n, GrainFromCost(dim), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      DDPKIT_CHECK(pidx[i] >= 0 && pidx[i] < vocab);
      std::memcpy(po + i * dim, pt + pidx[i] * dim,
                  static_cast<size_t>(dim) * sizeof(float));
    }
  });
  return out;
}

Tensor EmbeddingBackward(const Tensor& grad_out, const Tensor& indices,
                         const std::vector<int64_t>& table_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  DDPKIT_CHECK(indices.dtype() == DType::kInt64);
  const int64_t n = indices.numel();
  const int64_t dim = table_shape[1];
  Tensor grad_table =
      Tensor::Zeros(table_shape, DType::kFloat32, grad_out.device_id());
  const int64_t* pidx = indices.data<int64_t>();
  const float* pg = grad_out.data<float>();
  float* pt = grad_table.data<float>();
  for (int64_t i = 0; i < n; ++i) {
    float* row = pt + pidx[i] * dim;
    vec::AccumulateAdd(row, pg + i * dim, dim);
  }
  return grad_table;
}

// ---- Comparisons ----------------------------------------------------------------------

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  DDPKIT_CHECK_EQ(a.numel(), b.numel());
  // A NaN anywhere is a mismatch, so it must win every max (std::max would
  // drop it). Equal values, equal infinities included, differ by 0.
  const auto larger = [](double x, double y) {
    return std::isnan(x) || x > y ? x : y;
  };
  return ParallelReduce(
      0, a.numel(), kParallelGrain, 0.0,
      [&](int64_t lo, int64_t hi) {
        double mx = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          const double x = a.FlatAt(i), y = b.FlatAt(i);
          mx = larger(mx, x == y ? 0.0 : std::abs(x - y));
        }
        return mx;
      },
      larger);
}

bool AllClose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (a.numel() != b.numel()) return false;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    const double x = a.FlatAt(i), y = b.FlatAt(i);
    // A NaN matches nothing and an infinity only itself.
    if (x == y) continue;
    if (!std::isfinite(x) || !std::isfinite(y) ||
        std::abs(x - y) > atol + rtol * std::abs(y)) {
      return false;
    }
  }
  return true;
}

}  // namespace ddpkit::kernels
